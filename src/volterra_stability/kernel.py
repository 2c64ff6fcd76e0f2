"""Coefficient sequences (a_n) and certified enclosures of their series sums.

A kernel is a finite prefix a_1..a_N plus an analytic tail model
``a_n = c * q**n / (n**alpha * (n+1)**beta)`` for n > N.  That family is rich
enough to hold every sequence this library ships with while still admitting
certified tail sums, which is what the stability certificates need: an
interval that provably contains the true series value, or a proof of
divergence, never a bare floating-point estimate.  A tail sums in closed form
(geometric, telescoping), by Euler-Maclaurin with its remainder bound when its
ratio is 1, and otherwise term by term up to a bracketing remainder
(alternating series, geometric domination).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "TailModel",
    "KernelSpec",
    "SumEnclosure",
    "KernelFormatError",
    "term",
    "terms",
    "series_sum",
    "tail_abs_sum",
    "power_series_value",
    "radius_of_convergence",
    "support_gcd",
    "kernel_from_dict",
    "kernel_to_dict",
    "load_kernel",
    "loads_kernel",
    "dumps_kernel",
    "kernel_id",
]

_EPS = 2.0 ** -52
# hard cap on explicitly summed tail terms before giving up with Unknown
_TERM_BUDGET = 6_000_000
_CHUNK = 65_536
# the least integer that float() cannot convert: indices stay below it
_FLOAT_END = 2**1024 - 2**970
_MAX_DEGREE = 2000  # highest degree of p_n: its companion matrix has n^2 entries
_MAX_STEPS = 2**24  # most steps either solver runs: 2^24 values take 128 MiB per array
_MAX_GRID_POINTS = 2**22  # most grid points of the real-axis and circle scans


def _require(name: str, value: int, lo: int, hi: float = math.inf) -> None:
    """The one range check on size arguments: ValueError unless value is an integer and lo <= value <= hi."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if value > hi:
        raise ValueError(f"{name} must be <= {hi}")


class KernelFormatError(ValueError):
    """Raised when a kernel description violates the JSON schema."""


def _finite(name: str, v) -> float:
    """The one number rule: v as a float, or KernelFormatError naming the field
    when v is a bool, not a real number, or not finite."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise KernelFormatError(f"{name} must be a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise KernelFormatError(f"{name} is beyond float range") from None
    if not math.isfinite(f):
        raise KernelFormatError(f"{name} must be finite, got {v!r}")
    return f


@dataclass(frozen=True)
class TailModel:
    """Tail law for indices past the prefix: zero, or c*q^n/(n^alpha*(n+1)^beta).

    Checked however it is built: finite real c, q, alpha, beta >= 0, and c = 0 for
    a zero tail.  c = 0 gives the zero tail, with q = alpha = beta = 0."""

    kind: str  # "zero" | "parametric"
    c: float = 0.0
    q: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "parametric"):
            raise KernelFormatError(f"tail.kind must be 'zero' or 'parametric', got {self.kind!r}")
        c, q, alpha, beta = (_finite(f"tail.{f}", getattr(self, f)) for f in ("c", "q", "alpha", "beta"))
        for name, v in (("alpha", alpha), ("beta", beta)):
            if v < 0:
                raise KernelFormatError(f"tail.{name} must be >= 0, got {v!r}")
        if self.kind == "zero" and c != 0.0:
            raise KernelFormatError(f"tail.c must be 0 for a zero tail, got {c!r}")
        fields = ("parametric", c, q, alpha, beta) if c else ("zero", 0.0, 0.0, 0.0, 0.0)
        for name, v in zip(("kind", "c", "q", "alpha", "beta"), fields):
            object.__setattr__(self, name, v)

    @staticmethod
    def zero() -> "TailModel":
        return TailModel("zero")

    @staticmethod
    def parametric(c: float, q: float, alpha: float = 0.0, beta: float = 0.0) -> "TailModel":
        return TailModel("parametric", c, q, alpha, beta)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


@dataclass(frozen=True)
class KernelSpec:
    """The sequence (a_n): prefix[k-1] is a_k for k <= N, the tail rules n > N."""

    prefix: tuple[float, ...]
    tail: TailModel

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(_finite(f"prefix[{i}]", v) for i, v in enumerate(self.prefix)))

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)


@dataclass(frozen=True)
class SumEnclosure:
    """Certified interval [lo, hi] for a series value, or a divergence/unknown marker."""

    status: str  # "finite" | "divergent" | "unknown"
    lo: float = math.nan
    hi: float = math.nan

    @staticmethod
    def finite(lo: float, hi: float) -> "SumEnclosure":
        if not (lo <= hi):
            raise ValueError(f"invalid enclosure [{lo}, {hi}]")
        return SumEnclosure("finite", lo, hi)

    @staticmethod
    def divergent() -> "SumEnclosure":
        return SumEnclosure("divergent")

    @staticmethod
    def unknown() -> "SumEnclosure":
        return SumEnclosure("unknown")

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    @property
    def is_divergent(self) -> bool:
        return self.status == "divergent"

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.is_finite and self.lo <= value <= self.hi


# ---------------------------------------------------------------------------
# term evaluation


def term(kernel: KernelSpec, n: int) -> float:
    """a_n, with the prefix authoritative for n <= N and the tail beyond."""
    _require("n", n, 1)
    if n <= len(kernel.prefix):
        return kernel.prefix[n - 1]
    if n >= _FLOAT_END:
        raise ValueError("term index must be below float range")
    t = kernel.tail
    return float(_tail_terms(t.c, t.q, t.alpha, t.beta, np.array([float(n)]))[0])


def terms(kernel: KernelSpec, count: int) -> np.ndarray:
    """Vector of a_0..a_count with a_0 = 0 (index k holds a_k)."""
    _require("count", count, 0, max(_MAX_STEPS, len(kernel.prefix)))
    out = np.zeros(count + 1)
    npre = min(len(kernel.prefix), count)
    out[1 : npre + 1] = kernel.prefix[:npre]
    t = kernel.tail
    out[npre + 1 :] = _tail_terms(t.c, t.q, t.alpha, t.beta, np.arange(npre + 1, count + 1, dtype=float))
    return out


def _tail_terms(c: float, q: float, alpha: float, beta: float, i: np.ndarray) -> np.ndarray:
    """c q^i / (i^alpha (i+1)^beta) at the ascending float indices i: the one
    formula for tail terms, so that term, terms and the bracketed sums agree bit
    for bit.

    Where i^alpha or (i+1)^beta overflows while c q^i does not, the quotient
    would be 0; the term is c q^i i^-alpha (i+1)^-beta there.  Where c q^i
    overflows as well, the term comes out inf or nan.
    """
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        t = c * np.power(q, i)
        dens = ([np.power(i, alpha)] if alpha else []) + ([np.power(i + 1.0, beta)] if beta else [])
        for den in dens:
            t /= den
        # i ascends, so the denominators are greatest at the end
        if i.size and any(den[-1] == math.inf for den in dens):
            k = np.flatnonzero(np.logical_or.reduce([np.isinf(den) for den in dens]))
            k = k[np.isfinite(c * np.power(q, i[k]))]
            j = i[k]
            t[k] = c * np.power(q, j) * j**-alpha * (j + 1.0) ** -beta
    return t


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53, rounded up: k roundings move a value
    by at most gamma_k of it, exact or computed (Higham, Accuracy and Stability
    of Numerical Algorithms, Lemma 3.1).  A pow, exp or log within one ulp counts
    as two, math.fsum as one; a bound that takes j roundings itself reads k + j."""
    return math.nextafter(k / (2.0**53 - k), math.inf)


def _explicit(c: float, q: float, alpha: float, beta: float, i: np.ndarray, weight: int) -> tuple[float, float]:
    """math.fsum of the terms i^weight c q^i / (i^alpha (i+1)^beta) at the float
    indices i (exact below 2^53) and a bound on its error: 3 roundings (a pow, a
    product or quotient) for each of q^i, i^alpha, (i+1)^beta that |q| = 1,
    alpha = 0 or beta = 0 does not make exact, 1 for the weight, 2 for this fsum
    and the caller's, 4 for the bound (np.sum of n |t| is within gamma_(n-1)).
    Underflow adds under (|c| + 4) ulp(0) i^weight a term: ulp(0) for a subnormal
    pow, times at most |c| (below 1 for a second), and ulp(0)/2 a product."""
    t = _tail_terms(c, q, alpha, beta, i)
    with np.errstate(over="ignore"):
        if weight:
            t *= i
        mag = float(np.sum(np.abs(t))) * (1.0 + _gamma(2 * t.size))
    k = 3 * ((abs(q) != 1.0) + (alpha != 0.0) + (beta != 0.0)) + weight + 6
    return math.fsum(t.tolist()), _gamma(k) * mag + (abs(c) + 4.0) * math.ulp(0.0) * float(np.sum(i**weight))


# ---------------------------------------------------------------------------
# tail series enclosures
#
# All routines below bound Sum_{i>=start} i^w * c * q^i / (i^alpha (i+1)^beta).

_ZERO = SumEnclosure.finite(0.0, 0.0)


def _pad(lo: float, hi: float, dirt: float) -> SumEnclosure:
    """Widen [lo, hi] by dirt, a bound on the float error of the ends, and by
    gamma_3 (|end| + dirt) for forming each end, the slack and the widened end.
    A sum that underflows is exact, and no floor is added: each site's dirt has
    its own ulp(0) term.  Endpoints beyond float range give Unknown."""
    slack = dirt + _gamma(3) * (max(-lo, hi) + dirt)
    lo, hi = lo - slack, hi + slack
    if not -math.inf < lo <= hi < math.inf:
        return SumEnclosure.unknown()
    return SumEnclosure("finite", lo, hi)


def _tail_enclosure(c: float, q: float, alpha: float, beta: float, start: int, weight: int, precision: float) -> SumEnclosure:
    if q == 0.0:
        return _ZERO
    aq = abs(q)
    # fsum rounds once, so s and the q = 1 test carry the exact sign
    s = math.fsum((alpha, beta, -weight)) if alpha + beta < math.inf else math.inf
    if aq > 1.0 or (q == 1.0 and s <= 1.0 and math.fsum((alpha, beta, -weight - 1.0)) <= 0.0) or (q == -1.0 and s <= 0.0):
        # |terms| grow, sum like i^-s with s <= 1, or do not tend to zero
        return SumEnclosure.divergent()
    if start >= _FLOAT_END:
        raise ValueError("tail start index must be below float range")
    if s == math.inf:  # alpha and beta both exceed 2^970: the tail is below |c| ulp(0)
        return _pad(0.0, 0.0, (abs(c) + 1.0) * math.ulp(0.0))
    if q == 1.0 and alpha == 1.0 and beta == 1.0 and weight == 0:
        # telescoping: Sum_{i>=m} 1/(i(i+1)) = 1/m: 2 roundings (m past 2^53
        # among them), 2 for the bound, and ulp(0) for an underflow
        v = c / start
        exact = Fraction(v) * start == Fraction(c)
        return SumEnclosure.finite(v, v) if exact else _pad(v, v, _gamma(4) * abs(v) + math.ulp(0.0))
    if start > 2**53 - _TERM_BUDGET:  # float indices are exact only below 2^53
        return SumEnclosure.unknown()
    if aq < 1.0 and alpha == 0.0 and beta == 0.0:
        # geometric: Sum_{i>=m} q^i = q^m/(1-q) in 5 roundings, the first moment
        # q^m (m(1-q) + q)/(1-q)^2 in 13 (1 - q is exact for q >= 1/2, and for
        # q < 0 m(1-q) + q cancels by at most a factor 3), 2 for the bound.  A
        # q^m that underflows is off by ulp(0), scaled after by (2m+1)/(1-|q|)^2
        # at most, and each later product or quotient by ulp(0)/2: (2m+3) covers
        # both and this bound's own subnormal rounding
        v = c * (q**start / (1.0 - q) if weight == 0 else q**start * (start * (1.0 - q) + q) / (1.0 - q) ** 2)
        lost = abs(c) * ((2.0 * start + 3.0) / (1.0 - aq) ** 2 * math.ulp(0.0)) + math.ulp(0.0)
        return _pad(v, v, _gamma(7 + 8 * weight) * abs(v) + lost)

    if q == 1.0:
        # completely monotone terms: at most 64 of them, then Euler-Maclaurin
        return _euler_maclaurin(c, alpha, beta, start, weight, precision)

    # Bracketed cases: each supplies log R(m), a bound on the rest past m.
    log_c = math.log(abs(c))
    if q == -1.0:
        # alternating: |term_i| decreases for i > (weight - alpha)/s, where
        # d/di log|term_i| < 0; from there on the rest past m is at most
        # |term_{m+1}|, and before it no bound is claimed
        lowest = (weight - alpha) / s - 1.0

        def log_rem(m):
            if m < lowest:
                return math.inf
            return log_c + (weight - alpha) * math.log(m + 1) - beta * math.log(m + 2)

    else:  # geometric domination
        def log_rem(m):
            return _log_dominated(log_c, aq, alpha, beta, weight, m)

    return _bracketed(c, q, alpha, beta, start, weight, precision, log_rem)


# B_2j for j = 1..17, and _EM_COEF[j - 1] = B_2j / (2j)!
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510), (43867, 798),
    (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
)
_EM_COEF = tuple(float(Fraction(*b) / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI, 1))
# most terms summed one by one ahead of the Euler-Maclaurin formula
_EM_HEAD = 64


def _euler_maclaurin(c: float, alpha: float, beta: float, start: int, weight: int, precision: float) -> SumEnclosure:
    """Sum_{i>=start} i^weight c / (i^alpha (i+1)^beta) for s = alpha + beta - weight > 1.

    The terms start..N-1 are summed one by one, N - start <= 64.  Past N the
    summand is |c| f with f(x) = x^-a (x+1)^-b, a = alpha - weight.  f is
    completely monotone, so by Euler-Maclaurin (Olver, Asymptotics and Special
    Functions, ch. 8)
        Sum_{i>=N} f(i) = int_N^inf f + f(N)/2 + Sum_{j<=p} B_2j/(2j)! |f^(2j-1)(N)| + R
    with R between 0 and the first omitted term (j = p + 1).  When a < 0
    (weight 1 and alpha < 1, so beta > 1), x^-a (x+1)^-beta is
    x^-alpha (x+1)^(1-beta) minus x^-alpha (x+1)^-beta, and each part takes the
    formula.  p, then N, are the smallest that bring the omitted terms to
    0.75 * precision.  Unknown when p <= 16 does not, or when the rounding
    bound on each side exceeds precision / 16.
    """
    parts = ((alpha - weight, beta, 1.0),) if alpha >= weight else ((alpha, beta - 1.0, 1.0), (alpha, beta, -1.0))
    mag = abs(c)
    # |c| x^-a y^-b, off by at most (|c| + 1) ulp(0) where a power or the product underflows
    lost = (mag + 1.0) * math.ulp(0.0)

    def scale(x, y, a, b):
        return mag * x ** -a * y ** -b

    def rem(n, p):
        # the first omitted term, summed over the parts
        return sum(abs(_EM_COEF[p]) * _leibniz(a, b, n, 2 * p + 1) * scale(n, n + 1, a, b) for a, b, _ in parts)

    last = start + _EM_HEAD
    p = next((p for p in range(len(_EM_COEF)) if rem(last, p) <= 0.75 * precision), None)
    if p is None:
        return SumEnclosure.unknown()
    n = _stop_index(lambda m: rem(m, p), start, 0.75 * precision, last) or last
    vals, dirt = [], []
    r_lo = r_hi = 0.0
    for a, b, sign in parts:
        fn, f0 = scale(n, n + 1, a, b), scale(n + 1, n + 1, a, b)
        weights, rest = _em_integral(a, b, n)
        # (scale, weight, roundings): the first omitted term, the corrections
        # j = p..0, f(N)/2 and int_N^inf f = f0 Sum_k w_k; scale takes 6, the
        # j-th weight 8j + 8 (_leibniz 4k + 2 at k = 2j + 1), w_k 4k + 3, then
        # f w (exact for 0.5), the fsum and 2 for the bound.  Underflow: lost (|w| + 1)
        terms = [(fn, _EM_COEF[j] * _leibniz(a, b, n, 2 * j + 1), 8 * j + 18) for j in range(p, -1, -1)]
        terms += [(fn, 0.5, 9)] + [(f0, w, 4 * k + 13) for k, w in enumerate(weights)]
        dirt += [_gamma(ops) * abs(f * w) + lost * (abs(w) + 1.0) for f, w, ops in terms] + [(f0 + lost) * rest]
        r, *part = (sign * f * w for f, w, _ in terms)
        vals += part
        r_lo, r_hi = r_lo + min(r, 0.0), r_hi + max(r, 0.0)
    try:
        head, d = _explicit(mag, 1.0, alpha, beta, np.arange(start, n, dtype=float), weight)
        total, dirt = math.fsum(vals + [head]), math.fsum(dirt + [d])
    except (OverflowError, ValueError):  # a partial sum past float range
        return SumEnclosure.unknown()
    # the remainder takes 3/4 of the precision, the rounding on each side 1/16
    if not 16.0 * dirt <= precision:
        return SumEnclosure.unknown()
    lo, hi = total + r_lo, total + r_hi
    return _pad(-hi, -lo, dirt) if c < 0.0 else _pad(lo, hi, dirt)


def _leibniz(a: float, b: float, n: int, k: int) -> float:
    """|f^(k)(n)| / f(n) for f(x) = x^-a (x+1)^-b, a, b >= 0: by Leibniz,
    Sum_i C(k,i) (a)_i (b)_(k-i) n^-i (n+1)^(i-k), every term >= 0."""
    ra, rb = [1.0], [1.0]
    for j in range(k):
        ra.append(ra[-1] * (a + j) / n)
        rb.append(rb[-1] * (b + j) / (n + 1))
    return sum(math.comb(k, i) * ra[i] * rb[k - i] for i in range(k + 1))


def _em_integral(a: float, b: float, n: int) -> tuple[list[float], float]:
    """(w_k, rest) with int_n^inf x^-a (x+1)^-b dx = (n+1)^-(a+b) Sum_k w_k,
    w_k = (a)_k/k! (n+1)^(1-k) / (a+b+k-1), all > 0, and rest >= Sum of the
    w_k past the last one returned, below eps times their sum; rest is inf
    if their sum leaves float range first.
    """
    sm1 = math.fsum((a, b, -1.0))
    weights, h, total, k = [], float(n + 1), 0.0, 0
    while math.isfinite(total):
        w = h / (sm1 + k)
        weights.append(w)
        total += w
        # w_(j+1)/w_j <= (a+j)/((j+1)(n+1)) <= rho for every j >= k
        rho = max(a + k, k + 1.0) / ((k + 1) * (n + 1))
        if rho < 1.0 and w * rho <= _EPS * total * (1.0 - rho):
            return weights, w * rho / (1.0 - rho)
        h *= (a + k) / ((k + 1) * (n + 1))
        k += 1
    return weights, math.inf


def _log_dominated(log_c: float, aq: float, alpha: float, beta: float, weight: int, m: int) -> float:
    """log of a bound on Sum_{i>m} e^log_c i^weight aq^i / (i^alpha (i+1)^beta), 0 < aq < 1:
    geometric domination, the polynomial factor frozen at its value at m+1."""
    log_1q = math.log1p(-aq)
    geo = (m + 1) * math.log(aq) - log_1q
    if weight:
        geo += math.log1p(m * (1.0 - aq)) - log_1q
    return log_c + geo - alpha * math.log(m + 1) - beta * math.log(m + 2)


def _stop_index(bound, first: int, target: float, last: int) -> int | None:
    """Smallest m in [first, last] with bound(m) <= target, else None.

    bound is non-increasing, so the test is False and then True over the range.
    """
    ms = range(first, last + 1)
    i = bisect.bisect_left(ms, True, key=lambda m: bound(m) <= target)
    return ms[i] if i < len(ms) else None


def _bracketed(
    c: float, q: float, alpha: float, beta: float, start: int, weight: int, precision: float, log_rem
) -> SumEnclosure:
    """Explicit terms start..m plus the remainder bound R(m), padded once.

    m is the first index with R(m) <= 0.75 * precision, halved for the
    two-sided bracket of a sign-changing (q < 0) series, which leaves
    headroom for the padding.
    """
    two_sided = q < 0.0
    # capped so that exp(log_rem(m)) stays in float range
    log_target = min(700.0, math.log(precision) + math.log(0.375 if two_sided else 0.75))
    m = _stop_index(log_rem, start, log_target, start + _TERM_BUDGET - 1)
    if m is None:
        return SumEnclosure.unknown()
    chunks = (np.arange(i0, min(m, i0 + _CHUNK - 1) + 1, dtype=float) for i0 in range(start, m + 1, _CHUNK))
    try:
        partial, dirt = map(math.fsum, zip(*(_explicit(c, q, alpha, beta, i, weight) for i in chunks)))
    except (OverflowError, ValueError):  # a partial sum past float range
        return SumEnclosure.unknown()
    # the parts of log R(m) are <= 0 but log|c| <= 710 and up to three logs of
    # 1/(1-|q|), m + 1 or 1 + m(1-|q|), each < 37: where R(m) >= ulp(0) they
    # sum to at most 2,400 in absolute value, each in at most 10 roundings, so
    # the exp is good to 3e-12 relative; below ulp(0)/2 it rounds to 0
    rem = math.exp(log_rem(m)) * (1.0 + 1e-10) + math.ulp(0.0)
    # with same-signed terms the partial sum is one end
    lo = partial - rem if two_sided or c < 0.0 else partial
    hi = partial + rem if two_sided or c > 0.0 else partial
    return _pad(lo, hi, dirt)


# ---------------------------------------------------------------------------
# public series operations

_MODES = {"plain": (0, False), "absolute": (0, True), "first_moment": (1, False), "first_moment_abs": (1, True)}


def _add(parts, tail: SumEnclosure, exact: Fraction | None = None, slack: float = 0.0) -> SumEnclosure:
    """fsum of the prefix contributions ``parts`` plus the tail enclosure.

    A divergent tail stays divergent; parts or a sum beyond float range give
    Unknown.  The pad is gamma_8 Sum|part| (a part takes at most three
    roundings, v t^k, and the fsum one; the bound four more) plus the smallest
    subnormal (so that parts that underflowed to 0 are never taken for an exact
    sum), 0 when the fsum equals ``exact``, plus ``slack``, a bound on any
    further rounding.  The result is unpadded only when the pad is 0 and the
    prefix or the tail is 0.
    """
    if tail.is_divergent:
        return tail
    try:
        parts = list(parts)
        total = math.fsum(parts)
        dirt = _gamma(8) * math.fsum(map(abs, parts)) + math.ulp(0.0)
    except (OverflowError, ValueError):
        return SumEnclosure.unknown()
    if not tail.is_finite:
        return SumEnclosure.unknown()
    if exact is not None and math.isfinite(total) and Fraction(total) == exact:
        dirt = 0.0
    dirt += slack
    lo, hi = total + tail.lo, total + tail.hi
    if dirt == 0.0 and (total == 0.0 or tail.lo == tail.hi == 0.0):
        return SumEnclosure.finite(lo, hi)
    return _pad(lo, hi, dirt)


def series_sum(kernel: KernelSpec, mode: str = "plain", precision: float = 1e-12) -> SumEnclosure:
    """Certified enclosure of Sum_n w(a_n) for w in {a, |a|, n*a, n*|a|}.

    Returns Divergent only on a proof (|q| > 1, or |q| = 1 with too little
    polynomial decay for the requested moment), Unknown when neither a bracket
    nor a divergence proof is available at this precision.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _sum_past(kernel, 0, *_MODES[mode], precision)


def tail_abs_sum(kernel: KernelSpec, n: int, precision: float = 1e-12) -> SumEnclosure:
    """Certified enclosure of L_n = Sum_{i>n} |a_i|."""
    _require("n", n, 0)
    return _sum_past(kernel, n, 0, True, precision)


def _sum_past(kernel: KernelSpec, n: int, weight: int, absolute: bool, precision: float) -> SumEnclosure:
    """Sum_{i>n} i^weight a_i (|a_i| when absolute): the prefix parts with their
    exact sum (a part v * i can round, a part v is exact), plus the tail enclosure."""
    if not precision > 0:
        raise ValueError("precision must be positive")
    vals = [(i, abs(v) if absolute else v) for i, v in enumerate(kernel.prefix[n:], n + 1)]
    parts = [v * i**weight for i, v in vals]
    exact = sum(Fraction(v) * i for i, v in vals) if weight else sum(map(Fraction, parts))
    t = kernel.tail
    c, q = (abs(t.c), abs(t.q)) if absolute else (t.c, t.q)
    start = max(n, len(kernel.prefix)) + 1
    return _add(parts, _tail_enclosure(c, q, t.alpha, t.beta, start, weight, precision), exact)


def power_series_value(kernel: KernelSpec, t: float, precision: float = 1e-10) -> SumEnclosure:
    """Certified enclosure of a(t) = Sum a_n t^n at a real point inside the disk.

    The tail of a(t) is the tail family again with ratio q*t, so the same
    bracketing machinery applies; |t| must stay strictly below the radius of
    convergence.
    """
    if not precision > 0:
        raise ValueError("precision must be positive")
    if abs(t) >= radius_of_convergence(kernel):
        return SumEnclosure.unknown()
    # a t^k that underflows is off by up to ulp(0), so a_k t^k by (|a_k| + 1/2)
    # ulp(0); summed part by part, since Sum |a_k| alone can overflow
    lost = sum((abs(v) + 1.0) * math.ulp(0.0) for v in kernel.prefix)
    tm = kernel.tail
    ratio = tm.q * t
    # fl(q*t) is within gamma_1 |fl(q*t)| + ulp(0) of q*t (the ulp for
    # underflow), which moves term n by at most n |c| (gamma_1 bar + ulp(0))
    # bar^(n-1); summed over n >= 1 that is |c| (gamma_1 bar + ulp(0))/(1-bar)^2,
    # read as gamma_8 for the 7 roundings of this bound
    bar = abs(ratio) * (1.0 + _gamma(1))
    if bar >= 1.0:
        return SumEnclosure.unknown()
    enc = _tail_enclosure(tm.c, ratio, tm.alpha, tm.beta, len(kernel.prefix) + 1, 0, precision)
    parts = (v * t ** (i + 1) for i, v in enumerate(kernel.prefix))
    return _add(parts, enc, slack=lost + abs(tm.c) * (_gamma(8) * bar + math.ulp(0.0)) / (1.0 - bar) ** 2)


def _value_upper_bound(kernel: KernelSpec, grid: np.ndarray) -> np.ndarray:
    """Float bounds U >= a(t) at t = +grid (row 0) and t = -grid (row 1).

    a_1..a_K by Horner, K = max(N, 512), padded by (4K + 64) eps times the
    Horner sum of |a_k| |t|^k, which covers the rounding of the computed a_k,
    of Horner (gamma_2K) and of the final additions with room to spare (a
    float filter, not an enclosure, so it reads no _gamma), plus (K + 1)(|c| + 2)
    times the smallest subnormal for terms that underflow.  The rest is at most
    E (|t|/g)^(K+1), E >= Sum_{k>K} |a_k| g^k at the grid's far end g by
    geometric domination.  Entries are inf or nan where the coefficients or the
    Horner sums leave float range or log E >= 709: those points are candidates.
    """
    k_max = max(kernel.prefix_len, 512)
    coef = terms(kernel, k_max)[::-1]
    g = float(grid[-1])
    tm = kernel.tail
    far = 0.0
    if tm.q != 0.0:
        # the ratio rounded up bounds the true tail's terms; log 1/(1 - ratio) < 37, so _bracketed's pad holds
        ratio = math.nextafter(abs(tm.q) * g, math.inf)
        log_far = _log_dominated(math.log(abs(tm.c)), ratio, tm.alpha, tm.beta, 0, k_max)
        far = math.exp(log_far) * (1.0 + 1e-10) if log_far < 709.0 else math.inf
    with np.errstate(all="ignore"):
        val = np.polyval(coef, np.stack([grid, -grid]))
        mag = np.polyval(np.abs(coef), grid)
        rest = far * (grid / g) ** (k_max + 1) * (1.0 + 4.0 * (k_max + 2) * _EPS)
        tiny = (k_max + 1) * (abs(tm.c) + 2.0) * math.ulp(0.0)
        return val + rest + ((4 * k_max + 64) * _EPS * (mag + rest) + tiny)


def radius_of_convergence(kernel: KernelSpec) -> float:
    """Radius of convergence of Sum a_n z^n; the prefix never affects it."""
    t = kernel.tail
    if t.q == 0.0:
        return math.inf
    return 1.0 / abs(t.q)


def support_gcd(kernel: KernelSpec) -> int | None:
    """gcd of {n : a_n > 0}; None when no term is positive."""
    t = kernel.tail
    # past the prefix a_n > 0 at the even n (c > 0 > q), at every n (c, q > 0),
    # at the odd n (c, q < 0) or at no n: index sets of gcd 2, 1, 1 and none
    g = 2 if t.c > 0.0 > t.q else int(t.q < 0.0 or (t.c > 0.0 and t.q > 0.0))
    for i, v in enumerate(kernel.prefix, 1):
        if v > 0.0:
            g = math.gcd(g, i)
    return g or None


# ---------------------------------------------------------------------------
# JSON schema


def kernel_from_dict(data: dict) -> KernelSpec:
    """Parse {"prefix": [...], "tail": {...}}, prefix[0] is a_1: the structure; the built kernel checks the values."""
    if not isinstance(data, dict):
        raise KernelFormatError("kernel spec must be a JSON object")
    for name in ("prefix", "tail"):
        if name not in data:
            raise KernelFormatError(f"missing field: {name}")
    prefix, tail = data["prefix"], data["tail"]
    if not isinstance(prefix, list):
        raise KernelFormatError("prefix must be an array of numbers")
    if not isinstance(tail, dict) or "kind" not in tail:
        raise KernelFormatError("tail must be an object with a 'kind' field")
    fields = ("c", "q", "alpha", "beta") if tail["kind"] == "parametric" else ()
    for f in fields:
        if f not in tail:
            raise KernelFormatError(f"missing field: tail.{f}")
    return KernelSpec(tuple(prefix), TailModel(tail["kind"], *(tail[f] for f in fields)))


def kernel_to_dict(kernel: KernelSpec) -> dict:
    # a copy: vars() is the frozen tail's own __dict__
    tail = {"kind": "zero"} if kernel.tail.is_zero else vars(kernel.tail).copy()
    return {"prefix": list(kernel.prefix), "tail": tail}


def loads_kernel(text: str | bytes) -> KernelSpec:
    # invalid UTF-8 or JSON, an integer literal past the digit limit, nesting past the recursion limit
    try:
        data = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise KernelFormatError(f"invalid JSON: {e}") from e
    return kernel_from_dict(data)


def load_kernel(path) -> KernelSpec:
    with open(path, "rb") as f:
        return loads_kernel(f.read())


def dumps_kernel(kernel: KernelSpec) -> str:
    return json.dumps(kernel_to_dict(kernel), sort_keys=True)


def kernel_id(kernel: KernelSpec) -> str:
    """Content hash identifying the exact coefficient sequence."""
    return hashlib.sha256(dumps_kernel(kernel).encode("utf-8")).hexdigest()
