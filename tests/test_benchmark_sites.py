"""The benchmark's span wrappers still find every name they wrap.

perfbench/spans.py patches public functions of anisoq by name at run time,
and perfbench/run.py lists the `from ... import` bindings that must be
patched too.  A renamed or deleted function would leave its span empty; this
test fails instead.  The benchmark files are imported, never changed.
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
