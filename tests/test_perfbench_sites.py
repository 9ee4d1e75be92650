"""The traced benchmark's sites and spans resolve against the package.

``perfbench/tracer.py`` wraps functions and methods by attribute name, and
each workload in ``perfbench/workloads.py`` lists the spans a traced run
must record.  A rename or deletion in ``src/`` that the benchmark still
names fails here, before it breaks a traced run.
"""

import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """Run ``perfbench/<name>.py`` as a module, writing no bytecode cache there."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


SITES = load("tracer")._sites()
WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("name, owner, attr", [site[:3] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_traced_site_resolves(name, owner, attr):
    assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_spans_name_traced_sites(workload):
    spans = WORKLOADS[workload].spans
    assert spans
    assert set(spans) <= {site[0] for site in SITES}
