import importlib
import os
import subprocess
import sys
from pathlib import Path

import volterra_stability

# every public name the package exported before it republished its
# submodules with star imports
_PUBLIC = (
    "ASYMPTOTICALLY_STABLE BOUNDED_NON_DECAYING Certificate DECAYING DeltaMax DomainError EBound "
    "EmpiricalVerdict HEURISTIC INCONCLUSIVE KernelFormatError KernelSpec NOT_APPLICABLE NonConvergence "
    "RIGOROUS Report RootSet STABLE SumEnclosure TailModel Thresholds Trajectory UNBOUNDED UNSTABLE "
    "certify circle_min_modulus classify dumps_kernel e_bounds fixture_names kernel_from_dict kernel_id "
    "kernel_to_dict load_fixture load_kernel loads_kernel maximize_delta partial_sum_eval pn_roots "
    "power_series_value radius_of_convergence report_to_dict series_sum solve solve_fast support_gcd "
    "tail_abs_sum term terms test_absolute_sum test_efp test_marginal_stable test_real_axis_root "
    "test_rouche_stable test_rouche_unstable trajectory_to_csv"
).split()

_SUBMODULES = ("kernel", "simulate", "charfun", "certify", "fixtures")


def test_package_keeps_its_public_names():
    assert len(_PUBLIC) == 56
    missing = [name for name in _PUBLIC if not hasattr(volterra_stability, name)]
    assert missing == []
    assert callable(volterra_stability.certify)


def test_package_republishes_every_submodule_all():
    for name in _SUBMODULES:
        module = importlib.import_module(f"volterra_stability.{name}")
        for public in module.__all__:
            assert getattr(volterra_stability, public) is getattr(module, public), (name, public)


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test run itself loaded do not count
    src = str(Path(volterra_stability.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, volterra_stability, volterra_stability.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
