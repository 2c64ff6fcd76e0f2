import math

import numpy as np
import pytest
from hypothesis import settings

from volterra_stability import KernelSpec, TailModel, series_sum, term

# tier-1 checks the same examples on every run; "explore" draws new ones from
# --hypothesis-seed, for a wider search than one fixed set of examples
settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.register_profile("explore", settings.get_profile("suite"), derandomize=False)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# reference kernels used across the suite


def renewal_kernel():
    # a_n = 1/(n(n+1))
    return KernelSpec((), TailModel.parametric(1.0, 1.0, 1.0, 1.0))


def small_radius_unstable_kernel(p=2.0):
    # a_n = p^(n-1)/(n(n+1))
    return KernelSpec((), TailModel.parametric(1.0 / p, p, 1.0, 1.0))


def geometric_null_kernel(p=3.0):
    # a_n = -p^n, solution (1, -p, 0, 0, ...)
    return KernelSpec((), TailModel.parametric(-1.0, p))


def rouche_stable_pair_kernel(sign=1.0):
    # prefix (3/2, -9/16), tail +/- 20^-(n-2)
    return KernelSpec((1.5, -0.5625), TailModel.parametric(sign * 400.0, 0.05))


def rouche_table_kernel():
    return KernelSpec(
        (1.0, -41.0 / 36.0, 8.0 / 9.0, -34.0 / 81.0, 16.0 / 81.0, -4.0 / 81.0),
        TailModel.parametric(1.0 / 64.0, 0.5),
    )


def rouche_unstable_pair_kernel(zero_tail=False):
    tail = TailModel.zero() if zero_tail else TailModel.parametric(2.0, 0.5)
    return KernelSpec((4.0, -4.0), tail)


def alternating_cubic_kernel():
    # c0 (-1)^n / n^3 with c0 the reciprocal of sum 1/n^3
    return KernelSpec((), TailModel.parametric(0.8319073725807075, -1.0, 3.0, 0.0))


def geometric_half_kernel():
    # a_n = 2^-n
    return KernelSpec((), TailModel.parametric(1.0, 0.5))


def zero_q_pairs():
    """(parametric(c, 0, alpha, beta) kernel, zero-tail kernel) on one prefix.

    A q = 0 tail is zero past the prefix, so the two describe one sequence.
    """
    prefixes = [(), (0.5,), (1.0,), (0.5, 0.5), (1.5, -0.5625), (4.0, -4.0), (-0.3, 0.2, 0.1), (0.25, 0.0, 0.5)]
    return [
        (KernelSpec(p, TailModel.parametric(c, 0.0, alpha, beta)), KernelSpec(p, TailModel.zero()))
        for p in prefixes
        for c in (0.7, -0.7)
        for alpha, beta in ((0.0, 0.0), (1.0, 2.0))
    ]


def paper_kernels():
    return {
        "renewal": renewal_kernel(),
        "small_radius_unstable": small_radius_unstable_kernel(),
        "geometric_null": geometric_null_kernel(),
        "rouche_stable_pair_plus": rouche_stable_pair_kernel(+1.0),
        "rouche_stable_pair_minus": rouche_stable_pair_kernel(-1.0),
        "rouche_table": rouche_table_kernel(),
        "rouche_unstable_pair": rouche_unstable_pair_kernel(),
        "alternating_cubic": alternating_cubic_kernel(),
        "geometric_half": geometric_half_kernel(),
    }


# ---------------------------------------------------------------------------
# independent oracles


def brute_solve(kernel, steps, x0=1.0):
    """Reference recursion: pure-python lists, exact fsum per step.

    Independent of the library's evaluation order; only valid while the raw
    coefficients stay inside float range.
    """
    a = [0.0] + [term(kernel, k) for k in range(1, steps + 1)]
    x = [float(x0)]
    for n in range(1, steps + 1):
        x.append(math.fsum(a[n - i] * x[i] for i in range(n)))
    return np.array(x)


def brute_solve_exact(kernel, steps, x0=1):
    """Exact rational-arithmetic recursion for kernels with integer exponents.

    Slow but roundoff-free: the authoritative oracle for trajectories whose
    float evaluation is dominated by cancellation.
    """
    from fractions import Fraction

    t = kernel.tail

    def coeff(n):
        if n <= len(kernel.prefix):
            return Fraction(kernel.prefix[n - 1])
        if t.is_zero:
            return Fraction(0)
        assert t.alpha == int(t.alpha) and t.beta == int(t.beta)
        num = Fraction(t.c) * Fraction(t.q) ** n
        return num / (Fraction(n) ** int(t.alpha) * Fraction(n + 1) ** int(t.beta))

    a = [Fraction(0)] + [coeff(k) for k in range(1, steps + 1)]
    x = [Fraction(x0)]
    for n in range(1, steps + 1):
        x.append(sum(a[n - i] * x[i] for i in range(n)))
    return x


def grid_delta_max(moduli, r_n, points=100_000):
    """Dense-scan oracle for the delta profile maximum."""
    rho = np.linspace(1.0 / r_n, 1.0, points)
    prof = np.ones_like(rho)
    for m in moduli:
        prof *= np.abs(1.0 - rho * m)
    i = int(np.argmax(prof))
    return float(rho[i]), float(prof[i])


def random_bounded_kernel(rng, total_low=0.1, total_high=0.9, q_max=0.9):
    """Random prefix + geometric tail scaled to a target absolute mass."""
    npre = int(rng.integers(0, 6))
    pref = rng.normal(size=npre)
    q = float(rng.uniform(-q_max, q_max))
    c = float(rng.normal())
    if c == 0.0:
        c = 0.3
    alpha = float(rng.integers(0, 3))
    beta = float(rng.integers(0, 2))
    raw = KernelSpec(tuple(pref), TailModel.parametric(c, q, alpha, beta))
    mass = series_sum(raw, "absolute", 1e-9)
    target = float(rng.uniform(total_low, total_high))
    scale = target / max(mass.hi, 1e-12)
    return KernelSpec(
        tuple(v * scale for v in pref), TailModel.parametric(c * scale, q, alpha, beta)
    )


def class_u_kernels():
    """The 400 undecided-class kernels of ROADMAP.md ("class U"), in draw order:
    random.Random(7); a prefix of randint(0, 5) entries from U(-1.2, 1.2);
    c = ±U(0.01, 1) and q = ±U(0.05, 0.98), each sign drawn before its size;
    alpha = beta = 0 when random() < 0.5, else both from U(0, 3)."""
    import random

    r = random.Random(7)
    for _ in range(400):
        prefix = tuple(r.uniform(-1.2, 1.2) for _ in range(r.randint(0, 5)))
        c = r.choice([-1.0, 1.0]) * r.uniform(0.01, 1.0)
        q = r.choice([-1.0, 1.0]) * r.uniform(0.05, 0.98)
        alpha = beta = 0.0
        if r.random() >= 0.5:
            alpha, beta = r.uniform(0.0, 3.0), r.uniform(0.0, 3.0)
        yield KernelSpec(prefix, TailModel.parametric(c, q, alpha, beta))


def random_root_set(rng, max_degree=16, force_outside=True):
    """Synthetic root sets for the delta/E-bound property suites."""
    from volterra_stability import RootSet

    n = int(rng.integers(2, max_degree + 1))
    moduli = rng.uniform(0.05, 3.0, size=n)
    if force_outside and not np.any(moduli > 1.0):
        moduli[int(rng.integers(0, n))] = float(rng.uniform(1.01, 3.0))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
    roots = tuple(complex(m * math.cos(p), m * math.sin(p)) for m, p in zip(moduli, phases))
    r_n = float(np.max(np.abs(np.asarray(roots))))
    return RootSet(n, roots, 0.0, r_n)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
