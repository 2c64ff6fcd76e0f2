"""Trajectories of x_n = sum_{i<n} a_{n-i} x_i and their empirical classification.

The initial condition x_0 = 1 is canonical: every other solution is a scalar
multiple of it, so boundedness / decay of this one trajectory decides the
stability notions the certificate layer reports.

Two evaluation strategies share one contract: ``solve`` is the direct
quadratic recursion, ``solve_fast`` accumulates past-block contributions to
future indices with FFT convolutions (divide-and-conquer blocking).  Kernels
whose tail ratio |q| exceeds 1 are internally rescaled by q**-n so the
recursion runs on bounded coefficients; that keeps exactly-cancelling
trajectories (for instance geometric kernels whose solution dies after two
steps) exactly zero instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import solve_triangular, toeplitz

from .kernel import KernelSpec, TailModel, kernel_id, terms

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


class _EarlyStop(Exception):
    def __init__(self, last_index: int, overflow: bool):
        self.last_index = last_index
        self.overflow = overflow


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


def _needs_rescale(kernel: KernelSpec) -> bool:
    t = kernel.tail
    return (not t.is_zero) and abs(t.q) > 1.0


def _scaled_kernel(kernel: KernelSpec) -> tuple[KernelSpec, float]:
    """Divide a_n by q^n so the tail coefficients stay bounded."""
    q = kernel.tail.q
    pref = tuple(v / q ** (i + 1) for i, v in enumerate(kernel.prefix))
    t = kernel.tail
    return KernelSpec(pref, TailModel.parametric(t.c, 1.0, t.alpha, t.beta)), q


def solve(kernel: KernelSpec, steps: int, x0: float = 1.0, thresholds: Thresholds | None = None) -> Trajectory:
    """Direct O(steps^2) evaluation of the recursion, oldest index first."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    th = thresholds or Thresholds()
    limit = 10.0 * th.unbounded_cutoff
    if _needs_rescale(kernel):
        values, truncated, overflow = _run_scaled(kernel, steps, x0, limit)
    else:
        values, truncated, overflow = _run_plain(kernel, steps, x0, limit)
    return Trajectory(values, kernel_id(kernel), "direct", x0, truncated, overflow)


def _run_plain(kernel: KernelSpec, steps: int, x0: float, limit: float):
    a = terms(kernel, steps)
    a_rev = _reversed_coeffs(a)
    x = np.zeros(steps + 1)
    x[0] = x0
    for n in range(1, steps + 1):
        v = _inner_dot(a_rev, x, n)
        if not math.isfinite(v):
            return x[:n].copy(), True, True
        x[n] = v
        if abs(v) > limit:
            return x[: n + 1].copy(), True, False
    return x, False, False


def _run_scaled(kernel: KernelSpec, steps: int, x0: float, limit: float):
    scaled, q = _scaled_kernel(kernel)
    a = terms(scaled, steps)
    a_rev = _reversed_coeffs(a)
    u = np.zeros(steps + 1)
    x = np.zeros(steps + 1)
    u[0] = x0
    x[0] = x0
    pw = 1.0  # q^n * 2^-sigma, tracked alongside the rescaled history
    for n in range(1, steps + 1):
        un = _inner_dot(a_rev, u, n)
        if not math.isfinite(un):
            return x[:n].copy(), True, True
        u[n] = un
        pw *= q
        if un == 0.0:
            xn = 0.0
        else:
            xn = pw * un
            if not math.isfinite(xn):
                return x[:n].copy(), True, True
        x[n] = xn
        if abs(xn) > limit:
            return x[: n + 1].copy(), True, False
        if n % 64 == 0:
            recent = np.max(np.abs(u[max(0, n - 63) : n + 1]))
            if 0.0 < recent < _RENORM_LIMIT:
                # exact power-of-two rescale of the reduced history
                u[: n + 1] *= _RENORM_FACTOR
                pw /= _RENORM_FACTOR
    return x, False, False


def solve_fast(kernel: KernelSpec, steps: int, x0: float = 1.0, thresholds: Thresholds | None = None) -> Trajectory:
    """Blocked-convolution evaluation; same contract as ``solve``.

    Past-block contributions to future indices are accumulated with FFT
    convolutions, the recursion inside a base block stays direct.  Kernels
    needing the q^n rescale keep the direct path: their coefficient range
    makes float FFTs meaningless.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if _needs_rescale(kernel):
        return solve(kernel, steps, x0, thresholds)
    th = thresholds or Thresholds()
    limit = 10.0 * th.unbounded_cutoff

    a = terms(kernel, steps)
    x = np.zeros(steps + 1)
    x[0] = x0
    contrib = np.zeros(steps + 1)
    base = max(16, 1 << math.ceil(math.log2(math.sqrt(steps))))
    # intra-block recursion as a unit-lower-triangular Toeplitz system
    # (I - L) x_block = rhs with L[j,k] = a_{j-k}; one matrix serves every block
    width = min(base, steps)
    col = np.zeros(width)
    col[0] = 1.0
    col[1:] = -a[1:width]
    tri = toeplitz(col, np.zeros(width))

    def run_base(lo: int, hi: int):
        i0 = max(lo, 1)
        m = hi - i0
        if m <= 0:
            return
        rhs = contrib[i0:hi].copy()
        if lo == 0:
            rhs += a[i0:hi] * x0
        # coefficients and rhs are ours; a non-finite rhs is caught by the scan below
        block = solve_triangular(
            tri[:m, :m], rhs, lower=True, unit_diagonal=True, check_finite=False, overwrite_b=True
        )
        bad = ~np.isfinite(block)
        over = np.abs(block) > limit
        stop = np.nonzero(bad | over)[0]
        if stop.size:
            j = int(stop[0])
            x[i0 : i0 + j + 1] = np.where(np.isfinite(block[: j + 1]), block[: j + 1], 0.0)
            if bad[j]:
                raise _EarlyStop(i0 + j - 1, True)
            x[i0 + j] = block[j]
            raise _EarlyStop(i0 + j, False)
        x[i0:hi] = block

    fft_cache: dict[int, tuple[int, np.ndarray]] = {}

    def cross(lo: int, mid: int, hi: int):
        seg = x[lo:mid]
        span = hi - lo
        clen = span - 1
        if clen == 0 or seg.shape[0] == 0:
            return
        if seg.shape[0] * clen <= 65536:
            conv = np.convolve(seg, a[1:span])
        else:
            # the coefficient slice depends only on the span: cache its FFT
            cached = fft_cache.get(span)
            if cached is None:
                nfft = next_fast_len(seg.shape[0] + clen - 1)
                cached = (nfft, rfft(a[1:span], nfft))
                fft_cache[span] = cached
            nfft, a_hat = cached
            conv = irfft(rfft(seg, nfft) * a_hat, nfft)
        contrib[mid:hi] += conv[mid - lo - 1 : hi - lo - 1]

    def recurse(lo: int, hi: int):
        if hi - lo <= base:
            run_base(lo, hi)
            return
        mid = (lo + hi) // 2
        recurse(lo, mid)
        cross(lo, mid, hi)
        recurse(mid, hi)

    truncated = overflow = False
    values = x
    try:
        recurse(0, steps + 1)
    except _EarlyStop as stop:
        truncated = True
        overflow = stop.overflow
        values = x[: stop.last_index + 1].copy()
    return Trajectory(values, kernel_id(kernel), "fft_blocked", x0, truncated, overflow)


def classify(trajectory: Trajectory, thresholds: Thresholds | None = None) -> EmpiricalVerdict:
    """Empirical verdict on a computed trajectory.

    Overflow or a cutoff crossing decides Unbounded outright; short
    trajectories are Inconclusive; otherwise the trailing window decides
    between Decaying, BoundedNonDecaying, and a still-descending Inconclusive.
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
    if wmax < 0.9 * pmax:
        # still descending faster than 10% per window: not settled yet
        return EmpiricalVerdict(INCONCLUSIVE, widx, float(trajectory.values[widx]))
    return EmpiricalVerdict(BOUNDED_NON_DECAYING, widx, float(trajectory.values[widx]))


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV export, header ``n,x``, 17 significant digits per value."""
    lines = ["n,x"]
    for i, v in enumerate(trajectory.values):
        lines.append(f"{i},{v:.17g}")
    return "\n".join(lines) + "\n"
