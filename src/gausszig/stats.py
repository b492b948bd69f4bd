"""Statistical machinery certifying sampler output and diagnosing bit quality.

Reference CDF, moment summaries, Kolmogorov-Smirnov and chi-square
goodness-of-fit gates, and the low-bits frequency scan. Production code uses
its own special functions (erfc-based normal CDF, regularized incomplete
gamma for chi-square tails); the test suite checks them against independent
oracles. Everything here is a pure function of its inputs.

The gates that touch every deviate work over blocks of bounded size, so
their temporaries stay small at any n. `moments` is a two-pass method: the
mean first, then the central power sums, accumulated over blocks of BLOCK
elements in two reused buffers. `ks_test` and `chi_square_gof` read the
sorted sample, and sort a copy only when their input is not already
ascending, so a caller that sorts its sample once in place holds one array.

`ks_test` is a branch and bound over runs of sorted points that reads only
exact CDF values, so its statistic equals a per-element evaluation bit for
bit. `chi_square_gof` counts each bin as the difference of two positions of
its edges in the sorted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .sources import UniformSource

_SQRT2 = math.sqrt(2.0)

#: elements per block in moments and the ascending check
BLOCK = 1 << 16

#: consecutive sorted points that ks_test first bounds by the CDF at their
#: two ends; 2 * _KS_SPLIT**4, so each cut is even and the last runs are pairs
_KS_RUN = 512

#: shorter runs that ks_test cuts each run it keeps into
_KS_SPLIT = 4

#: points that ks_test searches at once, so no scratch grows with n
_KS_PIECE = 1 << 20


# --- special functions -------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite x, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1), by bisection on the monotone CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires 0 < p < 1, got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: no step can move mid
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_series(s: float, x: float) -> float:
    # lower regularized incomplete gamma P(s, x), series form (x < s + 1)
    term = 1.0 / s
    total = term
    a = s
    for _ in range(500):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))

def _gamma_cf(s: float, x: float) -> float:
    # upper regularized incomplete gamma Q(s, x), continued fraction (x >= s + 1)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def regularized_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s)."""
    if s <= 0.0 or x < 0.0:
        raise ValueError(f"gamma_q requires s > 0 and x >= 0, got ({s}, {x})")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_cf(s, x)


def chi_square_sf(statistic: float, dof: int) -> float:
    """Chi-square survival function P(X >= statistic)."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if statistic < 0.0:
        raise ValueError(f"statistic must be >= 0, got {statistic}")
    return regularized_gamma_q(0.5 * dof, 0.5 * statistic)


# --- reports ------------------------------------------------------------

@dataclass
class MomentSummary:
    """First four sample moments; variance is the unbiased (n-1) form."""

    n: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float

    def to_json_dict(self) -> dict:
        return {
            "test": "moments",
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
        }


@dataclass
class GofReport:
    """Chi-square goodness-of-fit outcome."""

    statistic: float
    dof: int
    p_value: float

    def passes(self, alpha: float) -> bool:
        return self.p_value > alpha

    def to_json_dict(self, test: str, alpha: float, n: int, seed=None) -> dict:
        return {
            "test": test,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "alpha": alpha,
            "verdict": "pass" if self.passes(alpha) else "fail",
            "n": n,
            "seed": seed,
        }


@dataclass
class KsReport:
    """Kolmogorov-Smirnov distance against a reference CDF."""

    d_statistic: float
    n: int

    def critical_value(self, alpha: float) -> float:
        # asymptotic two-sided critical value c(alpha)/sqrt(n)
        return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(self.n)

    def passes(self, alpha: float) -> bool:
        return self.d_statistic < self.critical_value(alpha)

    def to_json_dict(self, alpha: float, seed=None) -> dict:
        return {
            "test": "ks",
            "statistic": self.d_statistic,
            "dof": None,
            "p_value": None,
            "critical_value": self.critical_value(alpha),
            "alpha": alpha,
            "verdict": "pass" if self.passes(alpha) else "fail",
            "n": self.n,
            "seed": seed,
        }


# --- operations ----------------------------------------------------------

def moments(samples) -> MomentSummary:
    """Two-pass mean/variance/skewness/excess kurtosis.

    The mean comes from one sum; the central power sums of d = x - mean are
    then accumulated block by block, which keeps them accurate under a large
    common offset.
    """
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.shape[0]
    if n < 4:
        raise ValueError(f"moments requires n >= 4, got {n}")
    lo, hi = arr.min(), arr.max()
    # sum/n of a constant sample can miss the constant by an ulp
    mean = float(lo) if lo == hi else float(arr.sum()) / n
    m2 = m3 = m4 = 0.0
    # two buffers reused by every block: d, then d^3, and d^2, then d^4
    buf_d = np.empty(min(n, BLOCK))
    buf_d2 = np.empty_like(buf_d)
    for start in range(0, n, BLOCK):
        block = arr[start:start + BLOCK]
        d = np.subtract(block, mean, out=buf_d[:block.shape[0]])
        d2 = np.multiply(d, d, out=buf_d2[:block.shape[0]])
        m2 += float(d2.sum())
        m3 += float(np.multiply(d2, d, out=d).sum())
        m4 += float(np.multiply(d2, d2, out=d2).sum())
    variance = m2 / (n - 1)
    if m2 == 0.0:
        skew = 0.0
        kurt = 0.0
    else:
        skew = math.sqrt(float(n)) * m3 / m2 ** 1.5
        kurt = n * m4 / (m2 * m2) - 3.0
    return MomentSummary(n=n, mean=mean, variance=variance,
                         skewness=skew, excess_kurtosis=kurt)


def _sorted(samples) -> np.ndarray:
    """The sample as float64 in ascending order, sorting a copy only when the
    input is not ascending already; the caller's array is never modified."""
    arr = np.asarray(samples, dtype=np.float64)
    # a nan fails every <=, so a sample holding one is always sorted (nan last)
    for start in range(0, arr.shape[0] - 1, BLOCK):
        block = arr[start:start + BLOCK + 1]
        if not (block[:-1] <= block[1:]).all():
            return np.sort(arr)
    return arr


def _normal_cdf_at(x: np.ndarray) -> np.ndarray:
    # normal_cdf of each element, bit for bit: the same negation, division
    # by _SQRT2 (not a product with its inverse), erfc and halving
    t = np.negative(x)
    t /= _SQRT2
    cdf = np.fromiter(map(math.erfc, t.tolist()), dtype=np.float64,
                      count=t.shape[0])
    cdf *= 0.5
    return cdf


def _ks_gaps(cdf_vals: np.ndarray, i: np.ndarray, n: int) -> np.ndarray:
    # larger of i/n - F and F - (i-1)/n at each 1-based sorted index i
    return np.maximum(i / n - cdf_vals, cdf_vals - (i - 1.0) / n)


def ks_test(samples) -> KsReport:
    """Two-sided KS statistic of a sample against the standard normal.

    A branch and bound over the sorted sample, _KS_PIECE points at a time,
    that reads only exact CDF values. The piece is cut into runs of _KS_RUN
    consecutive points. The normal CDF is monotone, so no gap inside the
    run of 0-based indices a..b exceeds max((b+1)/n - F(x_a), F(x_b) - a/n),
    and taking F at the run's two ends gives that bound and the exact gaps
    at both ends. Every run whose bound is below the largest gap found so
    far is dropped: none of its points can hold the maximum. Each run left
    is cut into _KS_SPLIT shorter runs, which are bounded the same way,
    until the runs are pairs and every point left is a run end. The
    statistic is the largest gap evaluated, so it equals a per-element
    evaluation bit for bit. A sample whose runs all survive (an exact
    quantile grid, where every gap ties) costs 4/3 CDF values per point.
    """
    arr = _sorted(samples)
    n = arr.shape[0]
    if n < 1:
        raise ValueError("ks_test requires at least one sample")
    # sorting puts -inf first and +inf and nan last
    for end in (arr[0], arr[-1]):
        if not math.isfinite(end):
            raise ValueError(f"ks_test requires finite samples, got {end}")

    best = -math.inf
    for start in range(0, n, _KS_PIECE):
        length = _KS_RUN
        first = np.arange(start, min(n, start + _KS_PIECE), length)
        while first.shape[0]:
            last = np.minimum(first + (length - 1), n - 1)
            f_first = _normal_cdf_at(arr[first])
            f_last = _normal_cdf_at(arr[last])
            best = max(best, float(_ks_gaps(f_first, first + 1.0, n).max()),
                       float(_ks_gaps(f_last, last + 1.0, n).max()))
            if length <= 2:
                break  # every point of these runs is a run end
            bound = np.maximum((last + 1.0) / n - f_first, f_last - first / n)
            length //= _KS_SPLIT
            first = (first[bound >= best, None]
                     + np.arange(0, _KS_SPLIT * length, length)).ravel()
            first = first[first < n]  # the sample's last run may be short
    return KsReport(d_statistic=best, n=n)


def chi_square_gof(samples, bin_edges) -> GofReport:
    """Chi-square test of a sample against the standard normal over given
    interior edges.

    Bins are the len(edges)+1 intervals with open tails; a value on an edge
    belongs to the bin above it. Adjacent bins are merged left-to-right until
    every expected count is >= 5.
    """
    arr = _sorted(samples)
    n = arr.shape[0]
    edges = np.asarray(sorted(bin_edges), dtype=np.float64)
    if edges.shape[0] < 1:
        raise ValueError("need at least one bin edge")
    # the number of values below each edge, read off the sorted sample
    below = np.searchsorted(arr, edges, side="left")
    counts = np.diff(below, prepend=0, append=n).astype(np.float64)
    probs = np.diff([0.0] + [normal_cdf(float(e)) for e in edges] + [1.0])
    expected = probs * n

    merged_obs, merged_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs, merged_exp = [acc_o], [acc_e]
    if len(merged_exp) < 2:
        raise ValueError("fewer than 2 bins left after merging")
    if any(e <= 0.0 for e in merged_exp):
        raise ValueError("zero expected count after merging")

    statistic = sum((o - e) ** 2 / e for o, e in zip(merged_obs, merged_exp))
    dof = len(merged_exp) - 1
    return GofReport(statistic=float(statistic), dof=dof,
                     p_value=chi_square_sf(float(statistic), dof))


def uniform_counts_gof(counts) -> GofReport:
    """Chi-square of observed category counts against a uniform expectation."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    cells = counts.shape[0]
    if cells < 2:
        raise ValueError("need at least 2 cells")
    if total <= 0:
        raise ValueError("empty histogram")
    expected = total / cells
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = cells - 1
    return GofReport(statistic=statistic, dof=dof,
                     p_value=chi_square_sf(statistic, dof))


def low_bits_chi_square(src: UniformSource, k_bits: int, n: int) -> GofReport:
    """Frequency chi-square of the low k bits of n u64 draws vs uniform.

    Draws are counted engine.BLOCK words at a time, so memory does not grow
    with n.
    """
    if not 1 <= k_bits <= 8:
        raise ValueError(f"k_bits must be in 1..8, got {k_bits}")
    cells = 1 << k_bits
    if n < 100 * cells:
        raise ValueError(f"need n >= {100 * cells} draws for k={k_bits}, got {n}")
    mask = np.uint64(cells - 1)
    counts = np.zeros(cells, dtype=np.int64)
    buf = np.empty(min(n, engine.BLOCK), dtype=np.uint64)
    for done in range(0, n, engine.BLOCK):
        words = buf[:min(engine.BLOCK, n - done)]
        engine.fill_u64(src, words)
        counts += np.bincount((words & mask).astype(np.int64), minlength=cells)
    return uniform_counts_gof(counts)


def equal_probability_edges(bins: int) -> list:
    """Interior normal-quantile edges splitting the line into equal-mass bins."""
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    return [normal_quantile(j / bins) for j in range(1, bins)]
