"""Trajectories: direct recursion, blocked-FFT evaluation, classification.

The stability of the null solution is equivalent to the behavior of the
single trajectory started at x_0 = 1, so simulating that trajectory and
classifying it (decaying / bounded / unbounded / inconclusive) is the
fallback when no certificate applies.

Run:  python demos/02_trajectories.py
"""

import numpy as np

from volterra_stability import (
    KernelSpec,
    TailModel,
    classify,
    solve,
    solve_fast,
    trajectory_to_csv,
)

# x_n = sum a_k x_{n-k} with a_n = -3^n kills itself after two steps:
# x = (1, -3, 0, 0, ...).  Internally the recursion runs on the rescaled
# sequence a_n / 3^n so the coefficients never overflow and the cancellation
# stays exact; the zeros below are exact zeros, even at n = 1000.  A tail
# c q^n like this one needs only a running sum of the past, so each step
# costs O(1) work past the prefix, not O(n).
null = KernelSpec((), TailModel.parametric(-1.0, 3.0))
t = solve(null, 1000)
print("null kernel:", t.values[:6], "... max |x_n| for n >= 2:", np.max(np.abs(t.values[2:])))

# The geometric kernel a_n = 2^-n locks onto the constant 1/2.
half = KernelSpec((), TailModel.parametric(1.0, 0.5))
print("geometric 2^-n:", solve(half, 6).values)
print("classified as:", classify(solve(half, 10_000)).kind)

# a_n = 2^(n-1)/(n(n+1)) explodes; the solver exits early after crossing ten
# times the unbounded cutoff and the classifier reports the witness index.
fast_growth = KernelSpec((), TailModel.parametric(0.5, 2.0, 1.0, 1.0))
t = solve(fast_growth, 10_000)
v = classify(t)
print(f"ratio-2 kernel: truncated={t.truncated} len={len(t.values)} verdict={v.kind}"
      f" witness x_{v.witness_index} = {v.witness_value:.3e}")

# solve_fast accumulates past-block contributions with FFT convolutions and
# matches the direct path to ~1e-12 at a fraction of the cost.
renewal = KernelSpec((), TailModel.parametric(1.0, 1.0, 1.0, 1.0))
steps = 2**13
direct = solve(renewal, steps)
blocked = solve_fast(renewal, steps)
print("renewal kernel, 2^13 steps: max |direct - blocked| =",
      np.max(np.abs(direct.values - blocked.values)))

# Trajectories export as two-column CSV with 17 significant digits.
print()
print(trajectory_to_csv(solve(null, 3)), end="")
