"""Built-in reference kernels shipped as JSON files, and the final verdict
that ``reproduce-paper`` pins for each.

These are the sequences exercised throughout the test suite and by the
``reproduce-paper`` command: the renewal kernel 1/(n(n+1)), its ratio-2
modulation (unstable yet certificate-free), the geometric kernel whose
solution dies after two steps, the two finite-approximation showcases, the
alternating cubic kernel normalized to unit alternating mass, and the plain
geometric kernel with unit mass.
"""

from __future__ import annotations

from importlib import resources

from ..kernel import KernelSpec, loads_kernel

__all__ = ["fixture_names", "load_fixture", "fixture_text"]

# fixture -> the (verdict, criterion, rigor) reproduce-paper expects, in the order it runs them
_EXPECTED_FINALS = {
    "renewal": ("asymptotically_stable", "EFP", "rigorous"),
    "small_radius_unstable": ("unstable", "Empirical", "empirical"),
    "geometric_null": ("asymptotically_stable", "Empirical", "empirical"),
    "rouche_stable_pair_plus": ("asymptotically_stable", "RoucheStable", "rigorous"),
    "rouche_stable_pair_minus": ("asymptotically_stable", "RoucheStable", "rigorous"),
    "rouche_table": ("asymptotically_stable", "RoucheStable", "rigorous"),
    "rouche_unstable_pair": ("unstable", "RealAxisRoot", "rigorous"),
    "alternating_cubic": ("stable", "MarginalStable", "heuristic"),
    "geometric_half": ("stable", "MarginalStable", "heuristic"),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(_EXPECTED_FINALS)


def fixture_text(name: str) -> str:
    if name not in _EXPECTED_FINALS:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files(__package__).joinpath(f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> KernelSpec:
    return loads_kernel(fixture_text(name))
