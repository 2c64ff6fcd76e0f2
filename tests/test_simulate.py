import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from volterra_stability import (
    BOUNDED_NON_DECAYING,
    DECAYING,
    INCONCLUSIVE,
    UNBOUNDED,
    KernelSpec,
    TailModel,
    Thresholds,
    certify,
    classify,
    kernel_id,
    solve,
    solve_fast,
    term,
    trajectory_to_csv,
)

from conftest import (
    brute_solve,
    brute_solve_exact,
    geometric_half_kernel,
    geometric_null_kernel,
    random_bounded_kernel,
    renewal_kernel,
    small_radius_unstable_kernel,
)


# ---------------------------------------------------------------------------
# solve


def test_solve_geometric_null_short():
    t = solve(geometric_null_kernel(3.0), 5)
    assert np.array_equal(t.values, [1.0, -3.0, 0.0, 0.0, 0.0, 0.0])
    assert not t.truncated and not t.overflow


def test_solve_one_term_recursion():
    t = solve(KernelSpec((0.5,), TailModel.zero()), 4)
    assert np.array_equal(t.values, [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_solve_geometric_half_constant():
    t = solve(geometric_half_kernel(), 4)
    assert np.array_equal(t.values, [1.0, 0.5, 0.5, 0.5, 0.5])
    # independent summation-order oracle
    assert np.allclose(t.values, brute_solve(geometric_half_kernel(), 4), rtol=0, atol=1e-15)


def test_solve_matches_brute_oracle():
    cases = [
        renewal_kernel(),
        geometric_half_kernel(),
        KernelSpec((0.3, -0.2, 0.1), TailModel.parametric(0.4, -0.6, 1.0, 1.0)),
        small_radius_unstable_kernel(2.0),
    ]
    for k in cases:
        got = solve(k, 300)
        want = brute_solve(k, 300)
        m = min(len(got.values), len(want))
        scale = np.maximum(1.0, np.abs(want[:m]))
        assert np.max(np.abs(got.values[:m] - want[:m]) / scale) < 1e-12


def test_solve_scaled_path_matches_exact_oracle():
    k = geometric_null_kernel(3.0)
    got = solve(k, 200).values
    want = brute_solve_exact(k, 200)
    assert got[0] == want[0] and got[1] == want[1]
    assert all(v == 0 for v in want[2:])
    assert np.max(np.abs(got[2:])) == 0.0


def test_exact_oracle_agrees_on_renewal():
    got = solve(renewal_kernel(), 150).values
    want = brute_solve_exact(renewal_kernel(), 150)
    err = max(abs(g - float(w)) for g, w in zip(got, want))
    assert err < 1e-13


def test_solve_geometric_null_long_exact_zero():
    t = solve(geometric_null_kernel(3.0), 1000)
    assert len(t.values) == 1001
    assert not t.truncated and not t.overflow
    assert np.max(np.abs(t.values[2:])) == 0.0


def test_solve_metadata():
    k = renewal_kernel()
    t = solve(k, 100, x0=2.0)
    assert t.kernel_id == kernel_id(k)
    assert t.method == "direct"
    assert t.values[0] == 2.0
    with pytest.raises(ValueError):
        solve(k, 0)


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_solve_early_exit_flags(run):
    t = run(KernelSpec((2.0,), TailModel.zero()), 200)
    assert t.truncated and not t.overflow
    assert abs(t.values[-1]) > 1e13
    assert len(t.values) < 201
    # x_44 = 2^44 is the first beyond 1e13, past solve_fast's first 16-wide block
    assert len(t.values) == 45


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_x0_never_stops_a_run(run):
    # the stop rule scans x_1, x_2, ...: an x0 beyond the cutoff is the caller's value
    t = run(KernelSpec((), TailModel.zero()), 2**14, x0=1e20)
    assert len(t.values) == 2**14 + 1 and not t.truncated and not t.overflow
    t = run(KernelSpec((0.5,), TailModel.zero()), 2**14, x0=1e20)
    assert len(t.values) == 2 and t.truncated and not t.overflow


@pytest.mark.parametrize("run", [solve, solve_fast])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_nonfinite_x0_rejected(run, x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(renewal_kernel(), 3, x0=x0)


def test_solve_overflow_flags():
    # jump from moderate values straight past float range
    k = KernelSpec((1e300,), TailModel.zero())
    t = solve(k, 10, x0=1e-290)
    assert t.overflow and t.truncated
    assert np.all(np.isfinite(t.values))
    assert len(t.values) == 2  # x0, x1 = 1e10; x2 overflows


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_fast(KernelSpec((0.0,) * 200 + (1e300,), TailModel.zero()), 2**14, x0=1e-290),
        lambda: certify(KernelSpec((1.0,), TailModel.parametric(1e-320, 2.0, 2.0, 0.0))),
    ],
    ids=["solve_fast_blocked", "certify_rescaled"],
)
def test_overflow_warns_nothing(call):
    # overflow is an outcome that the stop rule reports, not a numpy warning;
    # test_cli's simulate case covers both solvers on a one-step overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


def test_scaled_path_renormalises_a_tiny_history():
    # |q| = 2 takes the q^n rescale; from x0 = 1e-300 the reduced history
    # sinks below 2^-600 and is scaled back up, or it underflows and the run
    # ends on a spurious overflow
    k = KernelSpec((), TailModel.parametric(0.5, 2.0, 2.0, 0.0))
    tiny = solve(k, 3000, x0=1e-300)
    assert (len(tiny), tiny.truncated, tiny.overflow) == (1057, True, False)
    assert 1.18e13 < tiny.values[-1] < 1.2e13
    unit = solve(k, 3000)
    assert (len(unit), unit.truncated, unit.overflow) == (51, True, False)
    expected = 1e-300 * unit.values
    assert np.all(np.abs(tiny.values[:51] - expected) <= 1e-15 * np.abs(expected))


def test_scaling_equivariance():
    k = KernelSpec((0.4, -0.3), TailModel.parametric(0.5, 0.7, 1.0, 0.0))
    beta = -2.5
    unit = solve(k, 400).values
    scaled = solve(k, 400, x0=beta).values
    denom = np.maximum(np.abs(beta * unit), 1e-300)
    assert np.max(np.abs(scaled - beta * unit) / denom) < 1e-12


def test_positivity_preserved():
    x = solve(renewal_kernel(), 2000).values
    assert np.all(x > 0.0)


def test_recursion_residual():
    for k in (renewal_kernel(), geometric_half_kernel(), KernelSpec((0.9,), TailModel.parametric(0.05, 0.5))):
        t = solve(k, 800)
        a = [term(k, i) for i in range(1, 801)]
        for n in (1, 2, 17, 399, 800):
            conv = math.fsum(a[j - 1] * t.values[n - j] for j in range(1, n + 1))
            bound = math.fsum(abs(a[j - 1] * t.values[n - j]) for j in range(1, n + 1))
            assert abs(t.values[n] - conv) <= 1e-10 * (1.0 + bound)


def test_theorem1_kernels_decay(rng):
    for _ in range(8):
        k = random_bounded_kernel(rng, 0.1, 0.9)
        verdict = classify(solve(k, 10_000))
        assert verdict.kind == DECAYING


# ---------------------------------------------------------------------------
# solve_fast


def test_fast_small_steps_match():
    for k in (renewal_kernel(), geometric_half_kernel()):
        for steps in (1, 2, 5, 8):
            a = solve(k, steps).values
            b = solve_fast(k, steps).values
            assert np.max(np.abs(a - b)) <= 1e-12


def test_fast_matches_direct_on_renewal():
    steps = 2**13
    a = solve(renewal_kernel(), steps).values
    b = solve_fast(renewal_kernel(), steps).values
    assert np.max(np.abs(a - b)) <= 1e-9


def test_fast_geometric_null_p2():
    t = solve_fast(geometric_null_kernel(2.0), 2**10)
    assert np.max(np.abs(t.values[2:])) <= 1e-12


def test_fast_method_tags():
    assert solve_fast(renewal_kernel(), 64).method == "fft_blocked"
    # rescaled kernels keep the direct path
    assert solve_fast(geometric_null_kernel(3.0), 64).method == "direct"


def test_fast_equivalence_random_suite(rng):
    # method-equivalence invariant at 2^13 on random geometric-tail kernels
    steps = 2**13
    checked = 0
    while checked < 100:
        k = random_bounded_kernel(rng, 0.1, 2.0)
        a = solve(k, steps)
        m_end = len(a.values)
        if np.max(np.abs(a.values)) > 1e3:
            continue
        b = solve_fast(k, steps)
        assert len(b.values) == m_end
        assert np.max(np.abs(a.values - b.values)) <= 1e-9
        checked += 1


def test_fast_truncates_like_direct():
    a = solve(small_radius_unstable_kernel(2.0), 300)
    b = solve_fast(small_radius_unstable_kernel(2.0), 300)
    assert a.truncated and b.truncated
    assert len(a.values) == len(b.values)
    scale = np.maximum(1.0, np.abs(a.values))
    assert np.max(np.abs(a.values - b.values) / scale) <= 1e-9


@pytest.mark.parametrize("prefix", [(1000.0,), (8.0,)])
def test_fast_resolvent_overflow_keeps_direct_flags(prefix):
    # the resolvent 1/(1 - a(z)) leaves float range inside the first base
    # block while x0 * r stays finite: blocks built from the cut-short
    # resolvent would miss the step where the direct recursion truncates
    k = KernelSpec(prefix, TailModel.zero())
    a = solve(k, 2**17, x0=1e-300)
    b = solve_fast(k, 2**17, x0=1e-300)
    assert (len(b), b.truncated, b.overflow) == (len(a), a.truncated, a.overflow)
    assert a.truncated and not a.overflow
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# classify


def test_classify_unbounded_small_radius():
    t = solve(small_radius_unstable_kernel(2.0), 100)
    v = classify(t)
    assert v.kind == UNBOUNDED
    assert abs(v.witness_value) > Thresholds().unbounded_cutoff


def test_classify_constant_bounded():
    v = classify(solve(geometric_half_kernel(), 10_000))
    assert v.kind == BOUNDED_NON_DECAYING
    assert v.witness_value == pytest.approx(0.5, abs=0)


def test_classify_decaying():
    v = classify(solve(KernelSpec((0.5,), TailModel.zero()), 1000))
    assert v.kind == DECAYING
    assert abs(v.witness_value) <= 1e-8


def test_classify_short_inconclusive():
    v = classify(solve(geometric_half_kernel(), 50))
    assert v.kind == INCONCLUSIVE


def test_classify_short_but_exploding_is_unbounded():
    t = solve(KernelSpec((3.0,), TailModel.zero()), 40)
    assert len(t.values) < 100 and t.truncated
    assert classify(t).kind == UNBOUNDED


def test_classify_descending_trend_inconclusive():
    # trailing window still dropping >10% per window: not settled
    vals = 1000.0 * np.power(0.985, np.arange(1000))
    fake = solve(KernelSpec((0.5,), TailModel.zero()), 999)
    fake.values = vals
    assert classify(fake).kind == INCONCLUSIVE


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(unbounded_cutoff=0.0)
    with pytest.raises(ValueError):
        Thresholds(decay_level=-1.0)
    with pytest.raises(ValueError):
        Thresholds(window_fraction=0.0)


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_custom_thresholds_change_cutoff(run):
    t = run(KernelSpec((2.0,), TailModel.zero()), 200, thresholds=Thresholds(unbounded_cutoff=1e3))
    assert t.truncated and abs(t.values[-1]) > 1e4
    assert len(t.values) == 15
    v = classify(t, Thresholds(unbounded_cutoff=1e3))
    assert v.kind == UNBOUNDED


# ---------------------------------------------------------------------------
# CSV export


def test_csv_export_shape_and_digits():
    t = solve(geometric_null_kernel(3.0), 3)
    text = trajectory_to_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "n,x"
    assert lines[1] == "0,1" and lines[2] == "1,-3"
    assert lines[3] == "2,0" and lines[4] == "3,0"
    v = 1.0 / 3.0
    t.values = np.array([v])
    out = trajectory_to_csv(t).strip().split("\n")[1]
    assert out == f"0,{v:.17g}"
    assert float(out.split(",")[1]) == v


@given(st.floats(-3, 3, allow_nan=False), st.integers(1, 40))
def test_scaling_equivariance_property(beta, steps):
    k = KernelSpec((0.5, -0.25), TailModel.zero())
    unit = solve(k, steps).values
    scaled = solve(k, steps, x0=beta).values
    assert np.max(np.abs(scaled - beta * unit)) <= 1e-12 * (1.0 + np.max(np.abs(beta * unit)))


@pytest.mark.parametrize("run", [solve, solve_fast])
@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec((1.6922323085429465, 1.0), TailModel.parametric(-1.0, 1e300, 0.07626300549533838, 3.0)),
        KernelSpec((1.0, 1.0), TailModel.parametric(1.0, 1e300)),
    ],
)
def test_huge_q_does_not_raise(run, kernel):
    # q^2 = 1e600 is beyond float range; a_3 is too, so the run is unbounded
    traj = run(kernel, 50)
    assert traj.values[0] == 1.0
    assert classify(traj).kind == UNBOUNDED
