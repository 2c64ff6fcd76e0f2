import cmath
import math

import numpy as np
import pytest

from volterra_stability import (
    DomainError,
    KernelSpec,
    NonConvergence,
    RootSet,
    TailModel,
    circle_min_modulus,
    e_bounds,
    maximize_delta,
    partial_sum_eval,
    pn_roots,
)
from volterra_stability.charfun import _polish_roots, pn_coefficients, sn_coefficients

from conftest import (
    alternating_cubic_kernel,
    geometric_half_kernel,
    geometric_null_kernel,
    grid_delta_max,
    paper_kernels,
    random_root_set,
    renewal_kernel,
    rouche_stable_pair_kernel,
    rouche_table_kernel,
    rouche_unstable_pair_kernel,
)


def _root_set(*roots):
    zs = tuple(complex(z) for z in roots)
    return RootSet(len(zs), zs, 0.0, max(abs(z) for z in zs))


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_at_zero_is_one():
    for k in (renewal_kernel(), rouche_table_kernel()):
        assert partial_sum_eval(k, 5, 0.0) == 1.0


def test_partial_sum_pair_kernel_at_one():
    # 1 - 3/2 + 9/16 = 1/16
    val = partial_sum_eval(rouche_stable_pair_kernel(), 2, 1.0)
    assert val == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_partial_sum_double_root_reciprocal():
    val = partial_sum_eval(rouche_unstable_pair_kernel(), 2, 0.5)
    assert abs(val) <= 1e-15


def test_partial_sum_validates_degree():
    with pytest.raises(ValueError):
        partial_sum_eval(renewal_kernel(), 0, 0.5)


def test_reversal_identity_random(rng):
    # s_n(z) = z^n p_n(1/z), checked on 1000 random (kernel, n, z)
    for _ in range(1000):
        npre = int(rng.integers(0, 5))
        k = KernelSpec(
            tuple(rng.normal(size=npre)),
            TailModel.parametric(float(rng.normal()), float(rng.uniform(-0.9, 0.9)), float(rng.integers(0, 3)), 0.0),
        )
        n = int(rng.integers(1, 12))
        r = float(rng.uniform(0.1, 10.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * complex(math.cos(phi), math.sin(phi))
        lhs = partial_sum_eval(k, n, z)
        rhs = z**n * complex(np.polyval(pn_coefficients(k, n), 1.0 / z))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(z) ** n)


# ---------------------------------------------------------------------------
# roots


def test_roots_double_three_quarters():
    rs = pn_roots(KernelSpec((1.5, -0.5625), TailModel.zero()), 2)
    assert rs.degree == 2 and len(rs.roots) == 2
    assert rs.r_n == pytest.approx(0.75, abs=1e-9)
    for z in rs.roots:
        assert abs(z - 0.75) <= 1e-8


def test_roots_double_two():
    rs = pn_roots(rouche_unstable_pair_kernel(), 2)
    assert rs.r_n == pytest.approx(2.0, abs=1e-9)
    for z in rs.roots:
        assert abs(z - 2.0) <= 1e-9


def test_roots_table_kernel_paper_values():
    k = rouche_table_kernel()
    for n, want in ((4, 0.913), (5, 0.781), (6, 0.667)):
        assert pn_roots(k, n).r_n == pytest.approx(want, abs=5e-4)


def test_roots_zero_coefficient():
    rs = pn_roots(KernelSpec((0.0,), TailModel.zero()), 1)
    assert rs.roots == (0.0,) and rs.r_n == 0.0


def test_roots_validate_degree():
    with pytest.raises(ValueError):
        pn_roots(renewal_kernel(), 0)


def test_roots_nonconvergence_on_overflowing_coefficients():
    with pytest.raises(NonConvergence):
        pn_roots(geometric_null_kernel(3.0), 700)


def test_root_reexpansion_matches_coefficients(rng):
    # degrees where float64 companion + polished Newton can honor the bound;
    # a truncation whose coefficients span 30+ decades scatters its root ring
    # beyond any float64 re-expansion accuracy and is excluded by design
    kernels = [renewal_kernel(), rouche_table_kernel(), geometric_half_kernel(), alternating_cubic_kernel()]
    for _ in range(20):
        q = float(rng.uniform(0.3, 0.8)) * (1 if rng.integers(0, 2) else -1)
        kernels.append(
            KernelSpec(tuple(rng.normal(size=int(rng.integers(0, 5)))), TailModel.parametric(float(rng.normal()), q))
        )
    for k in kernels:
        for n in (1, 3, 8, 17, 24):
            rs = pn_roots(k, n)
            rebuilt = np.real(np.poly(np.asarray(rs.roots)))
            want = pn_coefficients(k, n)
            mask = np.abs(want) >= 1e-12
            assert np.all(np.abs(rebuilt[mask] - want[mask]) <= 1e-8 * np.abs(want[mask]))


def test_residual_bound_small_on_typical_inputs():
    for k in (rouche_table_kernel(), geometric_half_kernel()):
        for n in (2, 6, 16):
            assert pn_roots(k, n).residual_bound <= 1e-10


def _polish_one_at_a_time(coeffs, roots):
    """Reference polish: the same guarded extended-precision Newton steps,
    one root at a time."""
    work = np.clongdouble
    cs = coeffs.astype(work)
    deriv = np.polyder(cs)
    out = roots.copy()
    for i, z0 in enumerate(roots):
        z = work(z0)
        fz = np.polyval(cs, z)
        for _ in range(8):
            if fz == 0:
                break
            dz = np.polyval(deriv, z)
            if dz == 0 or not np.isfinite(complex(dz)):
                break
            step = fz / dz
            if not np.isfinite(complex(step)):
                break
            z_new = z - step
            f_new = np.polyval(cs, z_new)
            if abs(f_new) >= abs(fz):
                break
            z, fz = z_new, f_new
        out[i] = complex(z)
    return out


def _assert_polish_bit_identical(coeffs):
    raw = np.roots(coeffs).astype(complex)
    with np.errstate(all="ignore"):
        want = _polish_one_at_a_time(coeffs.astype(complex), raw)
    assert np.array_equal(_polish_roots(coeffs.astype(complex), raw), want, equal_nan=True)


def test_vectorized_polish_bit_identical_on_fixtures():
    for k in paper_kernels().values():
        for n in list(range(1, 33)) + [200]:
            _assert_polish_bit_identical(pn_coefficients(k, n))


def test_vectorized_polish_bit_identical_on_random_polynomials(rng):
    for _ in range(200):
        d = int(rng.integers(1, 61))
        tail = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        _assert_polish_bit_identical(np.concatenate([[1.0], tail]))


# ---------------------------------------------------------------------------
# delta maximization


def test_delta_double_two():
    dm = maximize_delta(_root_set(2.0, 2.0))
    assert dm.rho0 == pytest.approx(1.0, abs=1e-9)
    assert dm.value == pytest.approx(1.0, abs=1e-12)
    # dense-grid oracle
    g_rho, g_val = grid_delta_max([2.0, 2.0], 2.0)
    assert dm.value >= g_val - 1e-10


def test_delta_single_root():
    dm = maximize_delta(_root_set(2.0))
    assert dm.rho0 == pytest.approx(1.0) and dm.value == pytest.approx(1.0)


def test_delta_mixed_roots():
    dm = maximize_delta(_root_set(2.0, 0.5))
    assert dm.rho0 == pytest.approx(1.0)
    assert dm.value == pytest.approx(0.5, abs=1e-12)
    g_rho, g_val = grid_delta_max([2.0, 0.5], 2.0)
    assert dm.value >= g_val - 1e-10


def test_delta_domain_error():
    with pytest.raises(DomainError):
        maximize_delta(_root_set(0.5, 0.9))


def test_delta_endpoint_zero():
    rs = _root_set(1.5, 2.5, 0.3)
    prof = 1.0
    for m in (1.5, 2.5, 0.3):
        prof *= abs(1.0 - m / 2.5)
    assert prof == pytest.approx(0.0, abs=1e-12)
    dm = maximize_delta(rs)
    assert dm.value > 0.0
    assert all(1.0 / 2.5 < kink < 1.0 for kink in dm.profile_kinks)


def test_delta_grid_oracle_agreement(rng):
    for _ in range(100):
        rs = random_root_set(rng)
        if rs.r_n <= 1.0:
            continue
        dm = maximize_delta(rs)
        _, g_val = grid_delta_max(np.abs(np.asarray(rs.roots)), rs.r_n)
        assert dm.value >= g_val - 1e-10
        assert 1.0 / rs.r_n <= dm.rho0 <= 1.0


# ---------------------------------------------------------------------------
# E bounds


def test_e1_all_roots_outside():
    eb = e_bounds(_root_set(2.0, 2.0))
    assert eb.kind == "E1" and eb.value == pytest.approx(1.0) and eb.rho == 1.0


def test_e2_mixed():
    eb = e_bounds(_root_set(2.0, 0.5))
    assert eb.kind == "E2" and eb.value == pytest.approx(0.25)


def test_e3_unit_modulus_neighbor():
    eb = e_bounds(_root_set(2.0, 1.0))
    assert eb.kind == "E3"
    assert eb.rho == pytest.approx(2.0 / 3.0)
    assert eb.value == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_e_bounds_domain_error():
    with pytest.raises(DomainError):
        e_bounds(_root_set(0.99))


def test_delta_dominates_e_bounds(rng):
    hits = 0
    for _ in range(1000):
        rs = random_root_set(rng)
        if rs.r_n <= 1.0:
            continue
        eb = e_bounds(rs)
        if eb.kind == "not_applicable":
            continue
        dm = maximize_delta(rs)
        assert eb.value <= dm.value + 1e-12 * max(1.0, dm.value)
        hits += 1
    assert hits > 500


# ---------------------------------------------------------------------------
# circle scan


def test_circle_min_one_term():
    val, z = circle_min_modulus(KernelSpec((0.5,), TailModel.zero()), 1, 64)
    assert val == pytest.approx(0.5, abs=1e-15)
    assert z == pytest.approx(1.0 + 0j)


def test_circle_min_geometric_half_near_theta_zero():
    val, z = circle_min_modulus(geometric_half_kernel(), 20, 4096)
    assert val < 1e-5
    assert abs(cmath.phase(z)) <= 2.0 * math.pi / 4096 + 1e-12


def test_circle_min_alternating_cubic_near_pi():
    val, z = circle_min_modulus(alternating_cubic_kernel(), 200, 4096)
    assert val < 1e-3
    assert abs(abs(cmath.phase(z)) - math.pi) <= 2.0 * math.pi / 4096 + 1e-12


def test_circle_min_validates_grid():
    with pytest.raises(ValueError):
        circle_min_modulus(renewal_kernel(), 10, 8)


def test_sn_pn_coefficient_layout():
    k = rouche_stable_pair_kernel()
    sn = sn_coefficients(k, 2)
    assert np.allclose(sn, [0.5625, -1.5, 1.0])
    pn = pn_coefficients(k, 2)
    assert np.allclose(pn, [1.0, -1.5, 0.5625])
