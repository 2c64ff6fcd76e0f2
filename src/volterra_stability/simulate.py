"""Trajectories of x_n = sum_{i<n} a_{n-i} x_i and their empirical classification.

The initial condition x_0 = 1 is canonical: every other solution is a scalar
multiple of it, so boundedness / decay of this one trajectory decides the
stability notions the certificate layer reports.

Two evaluation strategies share one contract: ``solve`` is the direct
quadratic recursion, ``solve_fast`` seeds x_0's share a_n x_0 of every x_n,
accumulates past-block contributions to future indices with FFT convolutions
(divide-and-conquer blocking) and solves each base block as one convolution
with the first values of that canonical trajectory, the resolvent
1/(1 - a(z)); numpy is its only dependency.  Every path ends through one stop
rule, ``_cut``: the values end before the first non-finite x_n (overflow) or
at the first |x_n| beyond ten times the unbounded cutoff (truncated), where
n >= 1, so x_0 never stops a run.  Kernels whose tail ratio |q| exceeds 1 are
internally rescaled by q**-n so the recursion runs on bounded coefficients;
that keeps exactly-cancelling trajectories (for instance geometric kernels
whose solution dies after two steps) exactly zero instead of overflowing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _MAX_STEPS, KernelSpec, TailModel, _require, kernel_id, radius_of_convergence, terms

__all__ = [
    "Thresholds",
    "Trajectory",
    "EmpiricalVerdict",
    "DECAYING",
    "BOUNDED_NON_DECAYING",
    "UNBOUNDED",
    "INCONCLUSIVE",
    "solve",
    "solve_fast",
    "classify",
    "trajectory_to_csv",
]

DECAYING = "decaying"
BOUNDED_NON_DECAYING = "bounded_non_decaying"
UNBOUNDED = "unbounded"
INCONCLUSIVE = "inconclusive"

# switch to compensated (chunked + exact partial combination) dot products
_COMPENSATE_FROM = 10_000
_DOT_CHUNK = 8192
# rescale the reduced trajectory when it drifts this deep into the exponent range
_RENORM_LIMIT = 2.0 ** -600
_RENORM_FACTOR = 2.0 ** 600


@dataclass(frozen=True)
class Thresholds:
    """Knobs for the empirical verdict; all strictly positive."""

    unbounded_cutoff: float = 1e12
    decay_level: float = 1e-8
    window_fraction: float = 0.01

    def __post_init__(self):
        if not self.unbounded_cutoff > 0:
            raise ValueError("unbounded_cutoff must be positive")
        if not self.decay_level > 0:
            raise ValueError("decay_level must be positive")
        if not 0 < self.window_fraction <= 1:
            raise ValueError("window_fraction must lie in (0, 1]")


@dataclass
class Trajectory:
    """Computed solution values x_0..x_N plus provenance.

    ``truncated`` marks an early exit after |x_n| crossed ten times the
    unbounded cutoff; ``overflow`` marks a non-finite value, in which case the
    stored values end at the last finite entry.
    """

    values: np.ndarray
    kernel_id: str
    method: str  # "direct" | "fft_blocked"
    x0: float = 1.0
    truncated: bool = False
    overflow: bool = False

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class EmpiricalVerdict:
    kind: str  # decaying | bounded_non_decaying | unbounded | inconclusive
    witness_index: int
    witness_value: float


def _inner_dot(a_rev: np.ndarray, x: np.ndarray, n: int) -> float:
    """sum_{i<n} a_{n-i} x_i with a fixed, reproducible evaluation order."""
    off = a_rev.shape[0] - n
    if n <= _COMPENSATE_FROM:
        return float(np.dot(a_rev[off:], x[:n]))
    parts = []
    for s in range(0, n, _DOT_CHUNK):
        e = min(n, s + _DOT_CHUNK)
        parts.append(float(np.dot(a_rev[off + s : off + e], x[s:e])))
    return math.fsum(parts)


def _reversed_coeffs(a: np.ndarray) -> np.ndarray:
    # a_rev[j] = a_{L-j} for j in 0..L-1; slicing a_rev[L-n:] yields (a_n..a_1)
    return np.ascontiguousarray(a[1:][::-1])


def _limit(steps: int, x0: float, thresholds: Thresholds | None) -> float:
    """Check the arguments both solvers share; return the stop limit."""
    _require("steps", steps, 1, _MAX_STEPS)
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    return 10.0 * (thresholds or Thresholds()).unbounded_cutoff


def _cut(x: np.ndarray, limit: float) -> tuple[np.ndarray, bool, bool]:
    """The stop rule: (values, truncated, overflow) for the computed x.

    Scans x_1, x_2, ... (never x_0, the caller's value): the values end before
    the first non-finite x_n, or at the first |x_n| > limit.
    """
    bad = np.flatnonzero(~np.isfinite(x[1:]) | (np.abs(x[1:]) > limit))
    if bad.size == 0:
        return x, False, False
    n = int(bad[0]) + 1
    if math.isfinite(x[n]):
        return x[: n + 1].copy(), True, False
    return x[:n].copy(), True, True


def solve(kernel: KernelSpec, steps: int, x0: float = 1.0, thresholds: Thresholds | None = None) -> Trajectory:
    """Direct O(steps^2) evaluation of the recursion, oldest index first."""
    limit = _limit(steps, x0, thresholds)
    with np.errstate(over="ignore", invalid="ignore"):  # _cut reports an overflow
        if radius_of_convergence(kernel) < 1.0:
            values, truncated, overflow = _run_scaled(kernel, steps, x0, limit)
        else:
            values, truncated, overflow = _run_plain(terms(kernel, steps), steps, x0, limit)
    return Trajectory(values, kernel_id(kernel), "direct", x0, truncated, overflow)


def _run_plain(a: np.ndarray, steps: int, x0: float, limit: float):
    a_rev = _reversed_coeffs(a)
    x = np.zeros(steps + 1)
    x[0] = x0
    for n in range(1, steps + 1):
        v = x[n] = _inner_dot(a_rev, x, n)
        if not math.isfinite(v) or abs(v) > limit:
            break
    return _cut(x, limit)


def _run_scaled(kernel: KernelSpec, steps: int, x0: float, limit: float):
    """The recursion on a_n / q^n, whose tail coefficients stay bounded."""
    t = kernel.tail
    q = t.q
    pref = tuple(_reduce(v, q, i + 1) for i, v in enumerate(kernel.prefix))
    a_rev = _reversed_coeffs(terms(KernelSpec(pref, TailModel.parametric(t.c, 1.0, t.alpha, t.beta)), steps))
    u = np.zeros(steps + 1)
    x = np.zeros(steps + 1)
    u[0] = x0
    x[0] = x0
    pw = 1.0  # q^n * 2^-sigma, tracked alongside the rescaled history
    for n in range(1, steps + 1):
        un = u[n] = _inner_dot(a_rev, u, n)
        pw *= q
        # a non-finite u_n gives a non-finite x_n: the product is inf or nan
        xn = x[n] = 0.0 if un == 0.0 else pw * un
        if not math.isfinite(xn) or abs(xn) > limit:
            break
        if n % 64 == 0:
            recent = np.max(np.abs(u[max(0, n - 63) : n + 1]))
            if 0.0 < recent < _RENORM_LIMIT:
                # exact power-of-two rescale of the reduced history
                u[: n + 1] *= _RENORM_FACTOR
                pw /= _RENORM_FACTOR
    return _cut(x, limit)


def _reduce(v: float, q: float, k: int) -> float:
    """v / q^k: one division while q^k is a float, else one factor of q at a time."""
    try:
        return v / q**k
    except OverflowError:
        for _ in range(k):
            v /= q
        return v


def solve_fast(kernel: KernelSpec, steps: int, x0: float = 1.0, thresholds: Thresholds | None = None) -> Trajectory:
    """Blocked-convolution evaluation; same contract as ``solve``.

    x_0's share a_n x_0 of every x_n is seeded up front, so the blocks cover
    x_1..x_steps alone.  Past-block contributions to future indices are
    accumulated with FFT convolutions.  Inside a base block the recursion is
    the lower-triangular Toeplitz system (I - L) x = rhs, whose inverse is the
    Toeplitz matrix of the resolvent r = 1/(1 - a(z)): r is the x_0 = 1
    trajectory, computed once by the direct recursion, and each block is one
    convolution with it.  The first block that breaks ``_cut``'s stop rule
    ends the run.  Kernels needing the q^n rescale, or whose resolvent leaves
    float range within one block, keep the direct path.
    """
    limit = _limit(steps, x0, thresholds)
    if radius_of_convergence(kernel) < 1.0:
        return solve(kernel, steps, x0, thresholds)

    a = terms(kernel, steps)
    base = max(16, 1 << math.ceil(math.log2(math.sqrt(steps))))
    width = min(base, steps)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing resolvent only selects the direct path
        r, _, r_overflow = _run_plain(a[:width], width - 1, 1.0, math.inf)
    if r_overflow:
        return solve(kernel, steps, x0, thresholds)
    x = np.zeros(steps + 1)
    x[0] = x0
    contrib = a * x0

    def run_base(lo: int, hi: int) -> bool:
        x[lo:hi] = np.convolve(r[: hi - lo], contrib[lo:hi])[: hi - lo]
        return _cut(x[lo - 1 : hi], limit)[1]

    @functools.cache
    def a_hat(span: int, nfft: int) -> np.ndarray:
        # the coefficient slice depends only on the span: its FFT is computed once
        return np.fft.rfft(a[1:span], nfft)

    def cross(lo: int, mid: int, hi: int):
        seg = x[lo:mid]
        span = hi - lo
        if seg.shape[0] * (span - 1) <= 65536:
            conv = np.convolve(seg, a[1:span])
        else:
            nfft = _fast_len(seg.shape[0] + span - 2)
            coef = a_hat(span, nfft)  # before seg's transform, which a cache miss would otherwise hold in memory
            conv = np.fft.irfft(np.fft.rfft(seg, nfft) * coef, nfft)
        contrib[mid:hi] += conv[mid - lo - 1 : hi - lo - 1]

    def recurse(lo: int, hi: int) -> bool:
        """Fill x[lo:hi]; True once the stop rule ends the run."""
        if hi - lo <= base:
            return run_base(lo, hi)
        mid = (lo + hi) // 2
        if recurse(lo, mid):
            return True
        cross(lo, mid, hi)
        return recurse(mid, hi)

    with np.errstate(over="ignore", invalid="ignore"):  # _cut reports an overflow
        recurse(1, steps + 1)
    values, truncated, overflow = _cut(x, limit)
    return Trajectory(values, kernel_id(kernel), "fft_blocked", x0, truncated, overflow)


def _fast_len(n: int) -> int:
    """Smallest 2^k * f >= n with f in {1, 3, 5}: an FFT length pocketfft runs fast."""
    return min(f << (-(-n // f) - 1).bit_length() for f in (1, 3, 5))


def classify(trajectory: Trajectory, thresholds: Thresholds | None = None) -> EmpiricalVerdict:
    """Empirical verdict on a computed trajectory.

    Overflow or a cutoff crossing decides Unbounded outright; short
    trajectories are Inconclusive; otherwise the trailing window decides
    between Decaying, BoundedNonDecaying, and Inconclusive (still moving).
    """
    th = thresholds or Thresholds()
    vals = np.abs(np.asarray(trajectory.values))
    n = vals.shape[0]
    if n == 0:
        return EmpiricalVerdict(INCONCLUSIVE, 0, math.nan)
    if trajectory.overflow:
        return EmpiricalVerdict(UNBOUNDED, n - 1, float(trajectory.values[-1]))
    over = np.nonzero(vals > th.unbounded_cutoff)[0]
    if over.size:
        i = int(over[0])
        return EmpiricalVerdict(UNBOUNDED, i, float(trajectory.values[i]))
    if n < 100:
        return EmpiricalVerdict(INCONCLUSIVE, n - 1, float(trajectory.values[-1]))
    w = max(1, int(th.window_fraction * n))
    tail = vals[n - w :]
    widx = int(np.argmax(tail)) + n - w
    wmax = float(vals[widx])
    if wmax <= th.decay_level:
        return EmpiricalVerdict(DECAYING, widx, float(trajectory.values[widx]))
    prev = vals[max(0, n - 2 * w) : n - w]
    pmax = float(np.max(prev)) if prev.size else wmax
    if wmax < 0.9 * pmax or wmax > (1.0 + w / (2 * n)) * pmax:
        # still descending faster than 10% per window, or rising by more than
        # half of what linear growth adds over one window: not settled yet
        return EmpiricalVerdict(INCONCLUSIVE, widx, float(trajectory.values[widx]))
    return EmpiricalVerdict(BOUNDED_NON_DECAYING, widx, float(trajectory.values[widx]))


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV export, header ``n,x``, 17 significant digits per value."""
    lines = ["n,x"]
    for i, v in enumerate(trajectory.values):
        lines.append(f"{i},{v:.17g}")
    return "\n".join(lines) + "\n"
