"""Construction and serialization of ziggurat layer tables.

The ziggurat covers the right half of exp(-x^2/2) with n equal-area layers:
a base strip (rectangle [0, r] x [0, f(r)] plus the unbounded tail) and n-1
stacked rectangles. The rightmost boundary r is the root of the closure
condition that the equal-area recursion lands exactly on x = 0, found here by
bisection. Tables are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: absolute residual below which the boundary solve is accepted
SOLVE_TOLERANCE = 1e-12
#: bisection iteration cap before construction fails
SOLVE_MAX_ITER = 200
#: most layers a table may have: beyond it the top layers' areas no longer
#: validate (2^16 fails at layer 65535), and each bisection step costs O(n)
MAX_LAYERS = 1 << 15

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def density(x: float) -> float:
    """Unnormalized standard normal density exp(-x^2/2)."""
    return math.exp(-0.5 * x * x)


def tail_area(r: float) -> float:
    """Area under exp(-x^2/2) from r to infinity."""
    return _SQRT_HALF_PI * math.erfc(r / math.sqrt(2.0))


class TableConstructionError(RuntimeError):
    """Raised when the layer-boundary solve fails to converge."""


@dataclass(frozen=True)
class ZigguratTables:
    """Precomputed layer data for ziggurat rejection sampling.

    x holds n+1 boundary abscissas: x[1] = r is the true rightmost boundary,
    x[0] = v/f(r) is the virtual width of the base strip, x[n] = 0. ktab[i]
    is the integer mantissa threshold below which a draw in layer i accepts
    immediately; wtab[i] scales an integer mantissa straight to an abscissa;
    ytab has n+1 density values f(x[0])..f(x[n]) = 1 for the wedge test.
    """

    n: int
    r: float
    v: float
    x: tuple
    ktab: tuple
    wtab: tuple
    ytab: tuple

    @property
    def index_bits(self) -> int:
        return self.n.bit_length() - 1

    @property
    def mantissa_bits(self) -> int:
        # one u64 = 1 sign bit + index_bits + mantissa
        return 63 - self.index_bits


def _closure_residual(r: float, n: int) -> float:
    """How far the equal-area recursion is from closing at x[n] = 0.

    Zero exactly when f(x[n-1]) + v/x[n-1] = f(0) = 1. Positive when r is
    too small (the recursion overshoots the top of the density before the
    last layer), negative when r is too large.
    """
    v = r * density(r) + tail_area(r)
    xi = r
    fi = density(r)
    for _ in range(n - 2):
        arg = fi + v / xi
        if arg >= 1.0:
            return arg - 1.0
        xi = math.sqrt(-2.0 * math.log(arg))
        fi = density(xi)
    return (fi + v / xi) - 1.0


def solve_boundary(n: int) -> float:
    """Bisect for the rightmost layer boundary r of an n-layer ziggurat."""
    lo, hi = 1.0, 10.0
    res_lo = _closure_residual(lo, n)
    if res_lo <= 0.0 or _closure_residual(hi, n) >= 0.0:
        raise TableConstructionError(f"no sign change bracketing r for n={n}")
    for _ in range(SOLVE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        res = _closure_residual(mid, n)
        if abs(res) < SOLVE_TOLERANCE:
            return mid
        if res > 0.0:
            lo = mid
        else:
            hi = mid
    raise TableConstructionError(
        f"boundary bisection did not reach |residual| < {SOLVE_TOLERANCE} "
        f"in {SOLVE_MAX_ITER} iterations for n={n}"
    )


def build_ziggurat_tables(n: int) -> ZigguratTables:
    """Build the full table set for an n-layer ziggurat (n a power of two,
    8 <= n <= MAX_LAYERS)."""
    if not 8 <= n <= MAX_LAYERS or (n & (n - 1)) != 0:
        raise ValueError(
            f"layer count must be a power of two in 8..{MAX_LAYERS}, got {n}")
    r = solve_boundary(n)
    v = r * density(r) + tail_area(r)

    x = [0.0] * (n + 1)
    x[1] = r
    x[0] = v / density(r)
    for i in range(1, n - 1):
        x[i + 1] = math.sqrt(-2.0 * math.log(density(x[i]) + v / x[i]))
    x[n] = 0.0

    mantissa_scale = float(1 << (63 - (n.bit_length() - 1)))
    ktab = [int(mantissa_scale * (x[i + 1] / x[i])) for i in range(n)]
    wtab = [x[i] / mantissa_scale for i in range(n)]
    ytab = [density(x[i]) for i in range(n)] + [1.0]

    tables = ZigguratTables(
        n=n, r=r, v=v, x=tuple(x), ktab=tuple(ktab),
        wtab=tuple(wtab), ytab=tuple(ytab),
    )
    _validate(tables)
    return tables


def _validate(t: ZigguratTables) -> None:
    n = t.n
    if t.x[n] != 0.0 or t.x[1] != t.r:
        raise TableConstructionError("boundary anchors corrupted")
    for i in range(n):
        if not t.x[i] > t.x[i + 1]:
            raise TableConstructionError(f"x not strictly decreasing at {i}")
        if not t.ytab[i] < t.ytab[i + 1]:
            raise TableConstructionError(f"ytab not increasing at {i}")
    base = t.r * density(t.r) + tail_area(t.r)
    if abs(base - t.v) > 1e-9 * t.v:
        raise TableConstructionError("base layer area mismatch")
    for i in range(1, n):
        area = t.x[i] * (t.ytab[i + 1] - t.ytab[i])
        if abs(area - t.v) > 1e-9 * t.v:
            raise TableConstructionError(f"layer {i} area off: {area!r}")


def _fmt(value: float) -> str:
    return format(value, ".17g")


def tables_to_json(t: ZigguratTables) -> str:
    """Serialize tables as a JSON document with 17-significant-digit reals."""
    parts = [
        f'{{"n": {t.n}',
        f'"r": {_fmt(t.r)}',
        f'"v": {_fmt(t.v)}',
        f'"x": [{", ".join(_fmt(v) for v in t.x)}]',
        f'"ktab": [{", ".join(str(k) for k in t.ktab)}]',
        f'"wtab": [{", ".join(_fmt(v) for v in t.wtab)}]',
        f'"ytab": [{", ".join(_fmt(v) for v in t.ytab)}]}}',
    ]
    return ", ".join(parts)


def tables_from_json(text: str) -> ZigguratTables:
    """Reload tables serialized by :func:`tables_to_json`, bit-exactly."""
    import json

    doc = json.loads(text)
    tables = ZigguratTables(
        n=int(doc["n"]),
        r=float(doc["r"]),
        v=float(doc["v"]),
        x=tuple(float(v) for v in doc["x"]),
        ktab=tuple(int(k) for k in doc["ktab"]),
        wtab=tuple(float(v) for v in doc["wtab"]),
        ytab=tuple(float(v) for v in doc["ytab"]),
    )
    _validate(tables)
    return tables
