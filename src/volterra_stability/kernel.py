"""Coefficient sequences (a_n) and certified enclosures of their series sums.

A kernel is a finite prefix a_1..a_N plus an analytic tail model
``a_n = c * q**n / (n**alpha * (n+1)**beta)`` for n > N.  That family is rich
enough to hold every sequence this library ships with while still admitting
closed-form or bracketed tail sums, which is what the stability certificates
need: an interval that provably contains the true series value, or a proof of
divergence, never a bare floating-point estimate.
"""

from __future__ import annotations

import hashlib
import json
import math
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


class KernelFormatError(ValueError):
    """Raised when a kernel description violates the JSON schema."""


@dataclass(frozen=True)
class TailModel:
    """Tail law for indices past the prefix: zero, or c*q^n/(n^alpha*(n+1)^beta)."""

    kind: str  # "zero" | "parametric"
    c: float = 0.0
    q: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0

    @staticmethod
    def zero() -> "TailModel":
        return TailModel("zero")

    @staticmethod
    def parametric(c: float, q: float, alpha: float = 0.0, beta: float = 0.0) -> "TailModel":
        for name, v in (("c", c), ("q", q), ("alpha", alpha), ("beta", beta)):
            if not math.isfinite(v):
                raise KernelFormatError(f"tail.{name} must be finite, got {v!r}")
        if alpha < 0:
            raise KernelFormatError(f"tail.alpha must be >= 0, got {alpha!r}")
        if beta < 0:
            raise KernelFormatError(f"tail.beta must be >= 0, got {beta!r}")
        if c == 0.0:
            return TailModel.zero()
        return TailModel("parametric", float(c), float(q), float(alpha), float(beta))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


@dataclass(frozen=True)
class KernelSpec:
    """The sequence (a_n): prefix[k-1] is a_k for k <= N, the tail rules n > N."""

    prefix: tuple[float, ...]
    tail: TailModel

    def __post_init__(self):
        for i, v in enumerate(self.prefix):
            if not math.isfinite(v):
                raise KernelFormatError(f"prefix[{i}] must be finite, got {v!r}")
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def term(self, n: int) -> float:
        return term(self, n)


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
    if n < 1:
        raise ValueError(f"term index must be >= 1, got {n}")
    if n <= len(kernel.prefix):
        return kernel.prefix[n - 1]
    t = kernel.tail
    if t.is_zero:
        return 0.0
    return t.c * t.q ** n / (n ** t.alpha * (n + 1) ** t.beta)


def terms(kernel: KernelSpec, count: int) -> np.ndarray:
    """Vector of a_0..a_count with a_0 = 0 (index k holds a_k)."""
    out = np.zeros(count + 1)
    npre = min(len(kernel.prefix), count)
    if npre:
        out[1 : npre + 1] = kernel.prefix[:npre]
    t = kernel.tail
    if not t.is_zero and count > len(kernel.prefix):
        n = np.arange(len(kernel.prefix) + 1, count + 1, dtype=np.int64)
        with np.errstate(over="ignore"):
            vals = t.c * np.power(float(t.q), n)
            if t.alpha:
                vals /= np.power(n.astype(float), t.alpha)
            if t.beta:
                vals /= np.power(n.astype(float) + 1.0, t.beta)
        out[n] = vals
    return out


# ---------------------------------------------------------------------------
# tail series enclosures
#
# All routines below bound Sum_{i>=start} i^w * c * q^i / (i^alpha (i+1)^beta).
# "absolute" replaces every term by its absolute value first.

_ZERO = SumEnclosure.finite(0.0, 0.0)


def _pad(lo: float, hi: float, dirt: float) -> SumEnclosure:
    """Outward-round an interval by a bound on accumulated float error.

    The absolute floor covers subnormal quantization, where relative padding
    underflows to nothing.  Endpoints beyond float range give Unknown.
    """
    slack = dirt + 4.0 * _EPS * max(-lo, hi) + 1e-305
    lo, hi = lo - slack, hi + slack
    if not -math.inf < lo <= hi < math.inf:
        return SumEnclosure.unknown()
    return SumEnclosure("finite", lo, hi)


def _geom_first(q: float, m: int) -> float:
    # Sum_{i>=m} i q^i, |q| < 1
    return q ** m * (m - (m - 1) * q) / (1.0 - q) ** 2


def _tail_enclosure(
    c: float,
    q: float,
    alpha: float,
    beta: float,
    start: int,
    weight: int,
    absolute: bool,
    precision: float,
) -> SumEnclosure:
    if absolute:
        c, q = abs(c), abs(q)
    if c == 0.0 or q == 0.0:
        return _ZERO
    aq = abs(q)
    s = alpha + beta - weight
    if aq > 1.0 or (q == 1.0 and s <= 1.0) or (q == -1.0 and s <= 0.0):
        # |terms| grow, sum like i^-s with s <= 1, or do not tend to zero
        return SumEnclosure.divergent()
    if q == 1.0 and alpha == 1.0 and beta == 1.0 and weight == 0:
        # telescoping: Sum_{i>=m} 1/(i(i+1)) = 1/m
        v = c / start
        return SumEnclosure.finite(v, v) if Fraction(v) * start == Fraction(c) else _pad(v, v, 0.0)
    if aq < 1.0 and alpha == 0.0 and beta == 0.0:
        # geometric: Sum_{i>=m} q^i = q^m / (1-q)
        v = c * (q ** start / (1.0 - q) if weight == 0 else _geom_first(q, start))
        return _pad(v, v, 0.0)

    # Bracketed cases: each supplies log R(m), a bound on the rest past m.
    log_c = math.log(abs(c))
    if q == 1.0:
        # integral test: term_i <= |c| i^-s, so R(m) = |c| m^(1-s) / (s-1)
        log_s1 = math.log(s - 1.0)

        def log_rem(m):
            return log_c - (s - 1.0) * math.log(m) - log_s1

    elif q == -1.0:
        # alternating: |term_i| decreases for i > (weight - alpha)/s, where
        # d/di log|term_i| < 0; from there on the rest past m is at most
        # |term_{m+1}|, and before it no bound is claimed
        lowest = (weight - alpha) / s - 1.0

        def log_rem(m):
            if m < lowest:
                return math.inf
            return log_c + (weight - alpha) * math.log(m + 1) - beta * math.log(m + 2)

    else:
        # geometric domination: the polynomial factor frozen at its value at m+1
        log_q, log_1q = math.log(aq), math.log1p(-aq)

        def log_rem(m):
            geo = (m + 1) * log_q - log_1q
            if weight:
                geo += math.log1p(m * (1.0 - aq)) - log_1q
            return log_c + geo - alpha * math.log(m + 1) - beta * math.log(m + 2)

    return _bracketed(c, q, alpha, beta, start, weight, precision, log_rem)


def _stop_index(log_rem, first: int, log_target: float, last: int) -> int | None:
    """Smallest m in [first, last] with log_rem(m) <= log_target, else None.

    log_rem is non-increasing: doubling brackets m, bisection pins it.
    """
    lo, hi = first - 1, first
    while log_rem(hi) > log_target:
        if hi >= last:
            return None
        lo, hi = hi, min(last, 2 * hi - first + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_rem(mid) <= log_target:
            hi = mid
        else:
            lo = mid
    return hi


def _bracketed(
    c: float,
    q: float,
    alpha: float,
    beta: float,
    start: int,
    weight: int,
    precision: float,
    log_rem,
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
    partial = 0.0
    abs_accum = 0.0
    for i0 in range(start, m + 1, _CHUNK):
        i = np.arange(i0, min(m, i0 + _CHUNK - 1) + 1, dtype=float)
        with np.errstate(under="ignore", over="ignore"):
            t = c * np.power(q, i)
            if alpha:
                t /= np.power(i, alpha)
            if beta:
                t /= np.power(i + 1.0, beta)
            if weight:
                t *= i
        partial += float(np.sum(t))
        abs_accum += float(np.sum(np.abs(t)))
    # exp of a log is good to ~1e-11 relative whenever R(m) clears _pad's floor
    rem = math.exp(log_rem(m)) * (1.0 + 1e-10)
    if two_sided:
        lo, hi = partial - rem, partial + rem
    else:
        # same-signed terms: the partial sum is one end
        lo, hi = (partial, partial + rem) if c > 0.0 else (partial - rem, partial)
    return _pad(lo, hi, 4.0 * _EPS * abs_accum)


# ---------------------------------------------------------------------------
# public series operations

_MODES = {"plain": (0, False), "absolute": (0, True), "first_moment": (1, False), "first_moment_abs": (1, True)}


def _prefix_sum(parts, exact: Fraction | None = None) -> tuple[float, float] | None:
    """fsum of the prefix contributions ``parts`` and a bound on its error.

    None when a part or the sum leaves float range.  The bound is 0 when the
    fsum equals ``exact``, else 4*eps*Sum|part|, which covers the rounding of
    each part and of the fsum.
    """
    try:
        parts = list(parts)
        total = math.fsum(parts)
        dirt = 4.0 * _EPS * sum(map(abs, parts))
    except (OverflowError, ValueError):
        return None
    if exact is not None and math.isfinite(total) and Fraction(total) == exact:
        dirt = 0.0
    return total, dirt


def _add(prefix: tuple[float, float] | None, tail: SumEnclosure) -> SumEnclosure:
    """Prefix sum plus tail enclosure, padded unless both are exact and one is 0.

    A divergent tail stays divergent.
    """
    if tail.is_divergent:
        return tail
    if prefix is None or not tail.is_finite:
        return SumEnclosure.unknown()
    total, dirt = prefix
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
    if not precision > 0:
        raise ValueError("precision must be positive")
    weight, absolute = _MODES[mode]
    vals = [abs(v) for v in kernel.prefix] if absolute else list(kernel.prefix)
    parts = [v * (i + 1) ** weight for i, v in enumerate(vals)]
    pref = _prefix_sum(parts, sum(Fraction(v) * (i + 1) ** weight for i, v in enumerate(vals)))
    t = kernel.tail
    if t.is_zero:
        return _add(pref, _ZERO)
    return _add(pref, _tail_enclosure(t.c, t.q, t.alpha, t.beta, len(vals) + 1, weight, absolute, precision))


def tail_abs_sum(kernel: KernelSpec, n: int, precision: float = 1e-12) -> SumEnclosure:
    """Certified enclosure of L_n = Sum_{i>n} |a_i|."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not precision > 0:
        raise ValueError("precision must be positive")
    parts = [abs(v) for v in kernel.prefix[n:]]
    pref = _prefix_sum(parts, sum(map(Fraction, parts)))
    t = kernel.tail
    if t.is_zero:
        return _add(pref, _ZERO)
    start = max(n, len(kernel.prefix)) + 1
    return _add(pref, _tail_enclosure(t.c, t.q, t.alpha, t.beta, start, 0, True, precision))


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
    pref = _prefix_sum(v * t ** (i + 1) for i, v in enumerate(kernel.prefix))
    tm = kernel.tail
    if tm.is_zero:
        return _add(pref, _ZERO)
    start = len(kernel.prefix) + 1
    ratio = tm.q * t
    # fl(q*t) is within eps*|q*t| of q*t, which moves term n by at most
    # n*eps*|c|*bar^n; summed over n >= 1 that is eps*|c|*bar/(1-bar)^2
    bar = abs(ratio) * (1.0 + _EPS)
    if bar >= 1.0:
        return SumEnclosure.unknown()
    enc = _tail_enclosure(tm.c, ratio, tm.alpha, tm.beta, start, 0, False, precision)
    if pref is None or not enc.is_finite:
        return SumEnclosure.unknown()
    total, dirt = pref
    return _pad(total + enc.lo, total + enc.hi, dirt + _EPS * abs(tm.c) * bar / (1.0 - bar) ** 2)


def radius_of_convergence(kernel: KernelSpec) -> float:
    """Radius of convergence of Sum a_n z^n; the prefix never affects it."""
    t = kernel.tail
    if t.is_zero or t.q == 0.0:
        return math.inf
    return 1.0 / abs(t.q)


def support_gcd(kernel: KernelSpec) -> int | None:
    """gcd of {n : a_n > 0}; None when no term is positive."""
    g = 0
    for i, v in enumerate(kernel.prefix):
        if v > 0.0:
            g = math.gcd(g, i + 1)
    t = kernel.tail
    if not t.is_zero and t.q != 0.0:
        npre = len(kernel.prefix)
        if t.c > 0.0 and t.q > 0.0:
            # every index past the prefix is in the support
            g = math.gcd(g, math.gcd(npre + 1, npre + 2))
        elif t.q < 0.0:
            if t.c > 0.0:
                # positive at even indices only
                g = math.gcd(g, 2)
            else:
                # positive at odd indices: two consecutive odd numbers are coprime
                g = math.gcd(g, 1)
    return g if g > 0 else None


# ---------------------------------------------------------------------------
# JSON schema


def kernel_from_dict(data: dict) -> KernelSpec:
    """Parse {"prefix": [...], "tail": {...}}; prefix[0] is a_1."""
    if not isinstance(data, dict):
        raise KernelFormatError("kernel spec must be a JSON object")
    if "prefix" not in data:
        raise KernelFormatError("missing field: prefix")
    if "tail" not in data:
        raise KernelFormatError("missing field: tail")
    prefix = data["prefix"]
    if not isinstance(prefix, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in prefix):
        raise KernelFormatError("prefix must be an array of numbers")
    for i, v in enumerate(prefix):
        if not math.isfinite(v):
            raise KernelFormatError(f"prefix[{i}] must be finite, got {v!r}")
    tail = data["tail"]
    if not isinstance(tail, dict) or "kind" not in tail:
        raise KernelFormatError("tail must be an object with a 'kind' field")
    kind = tail["kind"]
    if kind == "zero":
        tm = TailModel.zero()
    elif kind == "parametric":
        for f in ("c", "q", "alpha", "beta"):
            if f not in tail:
                raise KernelFormatError(f"missing field: tail.{f}")
            v = tail[f]
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise KernelFormatError(f"tail.{f} must be a finite number, got {v!r}")
        tm = TailModel.parametric(tail["c"], tail["q"], tail["alpha"], tail["beta"])
    else:
        raise KernelFormatError(f"tail.kind must be 'zero' or 'parametric', got {kind!r}")
    return KernelSpec(tuple(float(v) for v in prefix), tm)


def kernel_to_dict(kernel: KernelSpec) -> dict:
    if kernel.tail.is_zero:
        tail = {"kind": "zero"}
    else:
        t = kernel.tail
        tail = {"kind": "parametric", "c": t.c, "q": t.q, "alpha": t.alpha, "beta": t.beta}
    return {"prefix": list(kernel.prefix), "tail": tail}


def loads_kernel(text: str) -> KernelSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise KernelFormatError(f"invalid JSON: {e}") from e
    return kernel_from_dict(data)


def load_kernel(path) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as f:
        return loads_kernel(f.read())


def dumps_kernel(kernel: KernelSpec) -> str:
    return json.dumps(kernel_to_dict(kernel), sort_keys=True)


def kernel_id(kernel: KernelSpec) -> str:
    """Content hash identifying the exact coefficient sequence."""
    return hashlib.sha256(dumps_kernel(kernel).encode("utf-8")).hexdigest()
