"""Fixed constants shared by the CLI, the verification gates, and the docs.

Everything statistical in this package is gated at fixed seeds so that runs
reproduce exactly; change DEFAULT_SEED and every documented transcript changes
with it.
"""

# Default seed for every command. Override per run with --seed or GAUSSZIG_SEED.
DEFAULT_SEED = 0x5EEDBA5E

# Environment variable consulted by the CLI before falling back to DEFAULT_SEED.
SEED_ENV_VAR = "GAUSSZIG_SEED"

# Significance level for all pass/fail statistical gates.
GATE_ALPHA = 0.001

# Sample size the verify command uses unless told otherwise, and the minimum
# it will accept.
VERIFY_DEFAULT_N = 1_000_000
VERIFY_MIN_N = 10_000

# Largest --n that verify, sample and bits accept. Only verify holds the whole
# sample in memory: one float64 array of 0.8 GB at this n, sorted in place
# for the KS and chi-square gates. sample and bits stream in blocks.
MAX_N = 10**8

# Moment tolerances applied by the verify gates at n = 10^6.
MOMENT_TOL_MEAN = 0.004
MOMENT_TOL_VARIANCE = 0.01
MOMENT_TOL_SKEWNESS = 0.01
MOMENT_TOL_EXCESS_KURTOSIS = 0.05
