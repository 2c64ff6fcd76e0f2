"""Truncated characteristic objects: s_n, the reversed polynomials, and bounds.

For the first n coefficients, ``s_n(z) = 1 - sum_{k<=n} a_k z^k`` and the
monic reversal ``p_n(z) = z^n - a_1 z^{n-1} - ... - a_n`` satisfy
``s_n(z) = z^n p_n(1/z)``.  The largest root modulus r_n of p_n, the product
profile delta_n(rho) = prod |1 - rho |z_i||, and its closed-form lower bounds
E1/E2/E3 are the raw material of the finite-approximation certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _MAX_DEGREE, _MAX_GRID_POINTS, _MAX_STEPS, KernelSpec, _gamma, _require, terms

__all__ = [
    "RootSet",
    "DeltaMax",
    "EBound",
    "NonConvergence",
    "DomainError",
    "sn_coefficients",
    "pn_coefficients",
    "partial_sum_eval",
    "pn_roots",
    "maximize_delta",
    "e_bounds",
    "circle_min_modulus",
]

_RESIDUAL_LIMIT = 1e-8
_UNIT_TOL = 1e-9  # |z| counts as on the unit circle within this


class NonConvergence(RuntimeError):
    """Root finding failed to reach the residual bound; treat results as unusable."""


class DomainError(ValueError):
    """Operation invoked outside its domain (r_n on the wrong side of 1)."""


@dataclass(frozen=True)
class RootSet:
    """All n roots of p_n with a residual-based quality bound."""

    degree: int
    roots: tuple[complex, ...]
    residual_bound: float
    r_n: float

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(np.asarray(self.roots))

    def margin(self) -> float:
        """Conservative root-location slack: residual_bound^(1/n)."""
        return self.residual_bound ** (1.0 / self.degree)


@dataclass(frozen=True)
class DeltaMax:
    """Maximum of delta_n over [1/r_n, 1] and where it is attained."""

    rho0: float
    value: float
    profile_kinks: tuple[float, ...]


@dataclass(frozen=True)
class EBound:
    kind: str  # "E1" | "E2" | "E3" | "not_applicable"
    value: float
    rho: float


def sn_coefficients(kernel: KernelSpec, n: int) -> np.ndarray:
    """np.polyval-ready coefficients of s_n(z), highest power first."""
    _require("n", n, 0, _MAX_STEPS)
    a = terms(kernel, n)
    coeffs = np.empty(n + 1)
    coeffs[:n] = -a[1:][::-1]
    coeffs[n] = 1.0
    return coeffs


def pn_coefficients(kernel: KernelSpec, n: int) -> np.ndarray:
    """Monic coefficients of p_n(z) = z^n - a_1 z^{n-1} - ... - a_n."""
    return sn_coefficients(kernel, n)[::-1].copy()


def partial_sum_eval(kernel: KernelSpec, n: int, z: complex) -> complex:
    """Horner evaluation of s_n(z) = 1 - sum_{k=1..n} a_k z^k."""
    _require("n", n, 1)
    return complex(np.polyval(sn_coefficients(kernel, n), z))


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Guarded Newton steps in extended precision; a step never grows |p(z)|.

    All roots step together: a root leaves the active set at its first
    rejected step (p(z) = 0, p'(z) = 0, a step or p'(z) beyond float range,
    or |p| not shrinking), and each active root sees the same elementwise
    operations as a root polished alone, so the results do not depend on the
    other roots.
    """
    work = np.clongdouble
    cs = coeffs.astype(work)
    deriv = np.polyder(cs)
    z = roots.astype(work)
    with np.errstate(all="ignore"):
        fz = np.polyval(cs, z)
        active = np.flatnonzero(fz != 0)
        for _ in range(8):
            if active.size == 0:
                break
            za, fa = z[active], fz[active]
            dz = np.polyval(deriv, za)
            step = fa / dz
            z_new = za - step
            f_new = np.polyval(cs, z_new)
            ok = (dz != 0) & np.isfinite(dz.astype(complex)) & np.isfinite(step.astype(complex))
            ok &= ~(np.abs(f_new) >= np.abs(fa))
            active = active[ok]
            z[active], fz[active] = z_new[ok], f_new[ok]
            active = active[fz[active] != 0]
    return z.astype(complex)


def pn_roots(kernel: KernelSpec, n: int) -> RootSet:
    """All n roots of p_n via companion-matrix eigenvalues plus polishing.

    Raises NonConvergence when the polished residual exceeds the contract
    bound; callers must treat that as certificate-not-applicable.
    """
    _require("n", n, 1, _MAX_DEGREE)
    coeffs = pn_coefficients(kernel, n)
    if not np.all(np.isfinite(coeffs)):
        raise NonConvergence(f"p_{n} coefficients exceed float range")
    try:
        raw = np.roots(coeffs)
    except np.linalg.LinAlgError as e:
        raise NonConvergence(f"eigenvalue iteration failed for p_{n}") from e
    roots = _polish_roots(coeffs.astype(complex), raw.astype(complex))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residual = float(np.max(np.abs(np.polyval(coeffs, roots)))) / scale
    if not math.isfinite(residual) or residual > _RESIDUAL_LIMIT:
        raise NonConvergence(f"residual {residual:.3e} above {_RESIDUAL_LIMIT:.0e} for p_{n}")
    r_n = float(np.max(np.abs(roots)))
    return RootSet(n, tuple(complex(z) for z in roots), residual, r_n)


def maximize_delta(roots: RootSet) -> DeltaMax:
    """Global maximum of delta_n(rho) = prod |1 - rho|z_i|| over [1/r_n, 1].

    delta_n is 0 at 1/r_n and at every kink 1/|z_i| inside the interval, and
    between consecutive kinks log delta_n is concave: its slope
    Sum_i |z_i| / (rho|z_i| - 1) falls across the piece.  Bisecting on the
    sign of that slope until the bracket holds two adjacent floats finds each
    piece's maximum; rho = 1 is the only other candidate.
    """
    if roots.r_n <= 1.0:
        raise DomainError(f"delta maximization needs r_n > 1, got {roots.r_n}")
    moduli = roots.moduli
    lo = 1.0 / roots.r_n
    kinks = sorted({1.0 / m for m in moduli if m > 1.0 and lo < 1.0 / m < 1.0})
    # inf is the right value for huge moduli; a nan slope or value loses every test
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        best_rho, best_val = 1.0, float(np.prod(np.abs(1.0 - moduli)))
        for a, b in zip([lo] + kinks, kinks + [1.0]):
            while (mid := 0.5 * (a + b)) not in (a, b):
                if np.sum(moduli / (mid * moduli - 1.0)) > 0.0:
                    a = mid
                else:
                    b = mid
            v = float(np.prod(np.abs(1.0 - mid * moduli)))
            if v > best_val:
                best_rho, best_val = mid, v
    return DeltaMax(best_rho, best_val, tuple(kinks))


def e_bounds(roots: RootSet) -> EBound:
    """Closed-form lower bounds for the delta maximum, moduli sorted descending."""
    if roots.r_n <= 1.0:
        raise DomainError(f"E-bounds need r_n > 1, got {roots.r_n}")
    n = roots.degree
    m = np.sort(roots.moduli)[::-1]
    outside = int(np.sum(m > 1.0))
    if outside == 0:
        return EBound("not_applicable", math.nan, math.nan)
    with np.errstate(over="ignore"):  # inf is the right value for huge moduli
        if outside < n and abs(m[outside] - 1.0) <= _UNIT_TOL:
            rho1 = 2.0 / (float(m[outside - 1]) + 1.0)
            return EBound("E3", float(abs(1.0 - rho1 * m[outside - 1]) ** n), rho1)
        # at rho = 1, E1 (every modulus outside) and E2 are one bound
        return EBound("E1" if outside == n else "E2", float(np.min(np.abs(1.0 - m)) ** n), 1.0)


def _circle_modulus(coeffs: np.ndarray, grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles theta, points z = e^(i theta) and |s_n(z)| on a uniform unit-circle grid (coeffs from sn_coefficients)."""
    theta = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    z = np.exp(1j * theta)
    return theta, z, np.abs(np.polyval(coeffs, z))


def _zeros_inside(coeffs: np.ndarray, rho: float) -> int | None:
    """Zeros of s_n in |z| < rho by the argument principle: the summed principal
    arguments of f_{j+1}/f_j, f_j = s_n(rho e^(2 pi i j/G)), from one FFT with G
    the smallest power of two >= max(4096, 2(n + 1)) and h = 2 pi/G.  A simple
    zero between a sampled chord and the arc, at most rho h^2/8 inside rho, has
    its step within rho h/2 of +-pi, so a step wider than 0.75 pi is bisected by
    Horner values at arc midpoints until each sub-step is at most 0.75 pi.  None
    when a value is not finite or within its rounding floor of 0, or an arc's
    midpoint equals an end.  With x_k = rho^k [z^k] s_n, an FFT value's floor is
    4 times Higham's bound log2(G) 4 eps sqrt(G) ||x||_2 (Thm 24.2), a Horner
    value's gamma_(7(m+1)) Sum |x_k|, m = deg s_n: 6 roundings a step (3 a complex
    product, Lemma 3.5, 1 the sum, 2 |e^(i theta)|), m + 1 for Sum |x_k| and 1
    for the product.  A cluster of k >= 2 zeros within about h of the circle can
    turn one step by 2 pi unseen; the count still books at least k/2 of an
    inside cluster, so it reads 0 only when no zero is inside.
    """
    g = 1 << max(12, (2 * len(coeffs) - 1).bit_length())
    with np.errstate(all="ignore"):
        x = coeffs[::-1] * rho ** np.arange(len(coeffs))
        # fft(...)[::-1] runs counterclockwise, f[j] at theta = 2 pi (j + 1)/G
        f = np.fft.fft(x, g)[::-1]
        steps = np.angle(np.roll(f, -1) / f)
        noise = 16.0 * np.finfo(float).eps * math.log2(g) * math.sqrt(g) * np.linalg.norm(x)
        floor = _gamma(7 * len(np.trim_zeros(x, "b"))) * float(np.sum(np.abs(x)))
        if not (np.all(np.isfinite(steps)) and np.min(np.abs(f)) > noise):
            return None

        def turn(a: float, b: float, fa: complex, fb: complex) -> float:
            step, mid = float(np.angle(fb / fa)), 0.5 * (a + b)
            if abs(step) <= 0.75 * math.pi:
                return step
            fm = complex(np.polyval(x[::-1], np.exp(1j * mid)))
            if mid in (a, b) or not floor < abs(fm) < math.inf:
                return math.nan
            return turn(a, mid, fa, fm) + turn(mid, b, fm, fb)

        for j in np.flatnonzero(np.abs(steps) > 0.75 * math.pi):
            steps[j] = turn(2.0 * math.pi * (j + 1) / g, 2.0 * math.pi * (j + 2) / g, f[j], f[(j + 1) % g])
    return None if np.isnan(steps).any() else round(float(np.sum(steps)) / (2.0 * math.pi))


def circle_min_modulus(kernel: KernelSpec, n: int, grid_points: int) -> tuple[float, complex]:
    """Minimum of |s_n| over a uniform grid on the unit circle, with argmin."""
    _require("grid_points", grid_points, 16, _MAX_GRID_POINTS)
    _require("n", n, 1)
    _, z, vals = _circle_modulus(sn_coefficients(kernel, n), grid_points)
    i = int(np.argmin(vals))
    return float(vals[i]), complex(z[i])
