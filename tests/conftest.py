import pathlib
import sys

import pytest

from _acceptance_log import LINES as ACCEPTANCE_LINES

from orderlex import laurent
from orderlex.autos import figure_eight_monodromy, identity_automorphism
from orderlex.finite import TorusHomomorphism, cyclic_group
from orderlex.torus import MappingTorus

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST_DIR = REPO_ROOT / "manifests"


@pytest.fixture
def laurent_calls(monkeypatch):
    """Counts of calls to poly_divmod and poly_gcd during the test.

    Every orderlex binding of each function is wrapped, so a module that
    imported the name counts too."""
    calls = {"poly_divmod": 0, "poly_gcd": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("orderlex")]
    for name in calls:
        original = getattr(laurent, name)
        wrapper = counting(name, original)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="session")
def fig8_torus():
    return MappingTorus(2, figure_eight_monodromy(), label="figure-eight")


@pytest.fixture(scope="session")
def id2_torus():
    return MappingTorus(2, identity_automorphism(2), label="trivial-monodromy")


def cyclic_hom(torus, k, fiber_images=None, stable=1, label=None):
    """Homomorphism onto (a subgroup of) the cyclic group of order k.

    fiber_images and stable are exponents of the distinguished k-cycle."""
    g = cyclic_group(k)
    if fiber_images is None:
        fiber_images = [0] * torus.fiber_rank
    f = TorusHomomorphism(
        g,
        tuple(g.element(i % k) for i in fiber_images),
        g.element(stable % k),
        label=label or f"z{k}",
    )
    f.require_well_defined(torus.monodromy)
    return f


@pytest.fixture(scope="session")
def fig8_z2(fig8_torus):
    return cyclic_hom(fig8_torus, 2)


@pytest.fixture
def fig8_manifest_path():
    return str(MANIFEST_DIR / "figure_eight.json")


@pytest.fixture
def id2_manifest_path():
    return str(MANIFEST_DIR / "identity_rank2.json")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
