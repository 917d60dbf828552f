import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import anisoq
from anisoq import construction
from anisoq.energy import PsiConfig

EPS_GRID = (0.02, 0.05, 0.1, 0.15, 0.2)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cli_env(out_dir):
    """Environment for an `anisoq.cli` subprocess: outputs to out_dir, and the
    package the tests import first on its path, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(anisoq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, ANISOQ_OUT=str(out_dir), PYTHONPATH=path)


def g_metric_hungarian(p, q):
    """Matching metric between two (Q, d) Q-points (any Q) by the Hungarian
    method alone: the oracle that g_metric is compared with."""
    cost = np.sum((p[:, None, :] - q[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def projected_mass_h(T):
    """Mass of the h-plane pushforward of a current T, no cancellation (positive tangents)."""
    u1, u2 = T.edge_vectors()
    det = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
    return float(np.sum(T.mults * 0.5 * np.abs(det)))


@pytest.fixture(scope="session")
def bundle01():
    return construction.build(0.1)


@pytest.fixture(scope="session")
def cfg01():
    return PsiConfig.for_eps(0.1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def workload_pass(tmp_path_factory):
    """One pass of every job of every benchmark workload (perfbench/workloads.py)
    at seed 0, each job's output checked, for the tests that look at what
    runs.  Each workload runs under its own spans.Tracer and all of them
    under sys.setprofile.  Returns (codes, calls): the code objects entered,
    less those entered while the tracer computes its counters (the
    benchmark's code, not a job's), and {workload: {each function its
    `expects` names: calls recorded}}.
    The benchmark files are imported, never changed."""
    out = tmp_path_factory.mktemp("workloads")
    loaded = set(sys.modules)
    codes, calls = set(), {}
    tracer = None

    def profile(frame, event, _arg):
        if event == "call" and not tracer._suspended:
            codes.add(frame.f_code)

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            import spans
            import workloads

            for name, workload in workloads.WORKLOADS.items():
                jobs = workload.jobs(0)
                tracer = spans.Tracer()
                tracer.install()
                sys.setprofile(profile)
                try:
                    for i, job in enumerate(jobs):
                        out_dir = out / f"{name}{i}"
                        out_dir.mkdir()
                        raw = job.execute(str(out_dir))
                        assert job.check(raw, str(out_dir))[1] == [], job.name
                finally:
                    sys.setprofile(None)
                    tracer.uninstall()
                per_name, _totals = spans.summarize(tracer.spans)
                calls[name] = {fn: int(per_name.get(fn, {}).get("calls", 0))
                               for fn in workload.expects}
    finally:
        for mod in ("spans", "workloads"):
            if mod not in loaded:
                sys.modules.pop(mod, None)
    return codes, calls
