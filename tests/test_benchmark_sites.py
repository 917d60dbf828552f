"""The benchmark's span wrappers still find every name they wrap.

perfbench/spans.py patches public functions of anisoq by name at run time,
and perfbench/run.py lists the `from ... import` bindings that must be
patched too.  A renamed or deleted function would leave its span empty; this
test fails instead.  A traced pass of each workload (the workload_pass
fixture of conftest.py, which tests/test_library_reach.py shares) must also
record a call of every function its `expects` names: a refactor that routes
the last call around a wrapped function fails here, not only in a traced
benchmark run.  The benchmark files are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

from anisoq import cli, currents

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_wraps_every_name_and_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    originals = (currents.FunctionalQGraph.__dict__["from_nodal_sheets"], cli.envelope_upper)
    try:
        spans = importlib.import_module("spans")
        run = importlib.import_module("run")
        tracer = spans.Tracer()
        tracer.install()
        try:
            sites = {s for ss in tracer.sites.values() for s in ss}
            assert tracer.missing == []
            assert [s for s in run.REQUIRED_SITES if s not in sites] == []
        finally:
            tracer.uninstall()
    finally:
        for name in ("spans", "run", "workloads"):
            if name not in loaded:
                sys.modules.pop(name, None)
    assert (currents.FunctionalQGraph.__dict__["from_nodal_sheets"], cli.envelope_upper) \
        == originals


def test_traced_workloads_call_every_expected_function(workload_pass):
    _codes, calls = workload_pass
    assert {name: [fn for fn, n in per_fn.items() if n == 0] for name, per_fn in calls.items()} \
        == {name: [] for name in calls}
