"""Built-in reference kernels shipped as JSON files.

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

_NAMES = (
    "renewal",
    "small_radius_unstable",
    "geometric_null",
    "rouche_stable_pair_plus",
    "rouche_stable_pair_minus",
    "rouche_table",
    "rouche_unstable_pair",
    "alternating_cubic",
    "geometric_half",
)


def fixture_names() -> tuple[str, ...]:
    return _NAMES


def fixture_text(name: str) -> str:
    if name not in _NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files(__package__).joinpath(f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> KernelSpec:
    return loads_kernel(fixture_text(name))
