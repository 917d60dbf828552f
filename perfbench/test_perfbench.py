"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.load_program()

SEEDED = {"envelope", "obstruction", "identities"}


def test_self_times_on_a_synthetic_nested_trace():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] with two
    # overlapping bookkeeping children [6, 7] and [6.5, 8]
    trace = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["energy.psi_batch", 0, 1.0, 4.0, {"rows": 6}],
        ["exterior.lambda_m_batch", 1, 2.0, 3.0, {"rows": 6}],
        ["currents.triangulate", 0, 5.0, 9.0, None],
        [spans.BOOKKEEPING, 3, 6.0, 7.0, None],
        [spans.BOOKKEEPING, 3, 6.5, 8.0, None],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    per_name, totals = spans.summarize(trace)
    assert per_name["energy.psi_batch"]["rows"] == 6
    assert per_name["energy.psi_batch"]["calls"] == 1
    assert totals["cli.self_s"] == pytest.approx(3.0)
    assert totals["energy.self_s"] == pytest.approx(2.0)
    assert totals["exterior.self_s"] == pytest.approx(1.0)
    assert totals["currents.self_s"] == pytest.approx(2.0)
    assert totals["unwrapped_s"] == pytest.approx(2.5)
    assert totals["root_s"] == pytest.approx(10.0)
    # overlapping siblings are counted twice; nested, disjoint spans partition the root
    assert spans.rollup_gap(totals) == pytest.approx(0.5)
    trace[5][2] = 7.0
    assert spans.rollup_gap(spans.summarize(trace)[1]) == pytest.approx(0.0)


def _envelope_jobs(names, seed=0):
    return [j for j in workloads.envelope_jobs(seed) if j.name in names]


def _reference(workload):
    return json.loads(run.REFERENCE_PATH.read_text())[workload]


def test_reference_values_pass_and_a_perturbed_one_fails():
    jobs = _envelope_jobs({"envelope.ray1.q2", "certificate.q2", "construct.eps0.1"})
    ref = _reference("envelope")
    rec = run.run_pass(jobs, 0, ref)
    assert [r["failed"] for r in rec["jobs"]] == [False, False, False]

    bad = copy.deepcopy(ref)
    bad["certificate.q2"]["gap"] += 1e-9
    rec = run.run_pass(jobs, 0, bad)
    failed = [r["job"] for r in rec["jobs"] if r["failed"]]
    assert failed == ["certificate.q2"]
    assert "differs from reference" in rec["jobs"][1]["problems"][0]


def test_a_raising_job_fails_and_the_run_goes_on():
    def boom(out_dir):
        raise ArithmeticError("injected")

    raising = workloads.Job("raises", (), False, boom, lambda raw, d: ({}, []))
    jobs = [raising] + _envelope_jobs({"envelope.ray2.q2"})
    rec = run.run_pass(jobs, 0, _reference("envelope"))
    assert rec["jobs"][0]["failed"]
    assert rec["jobs"][0]["problems"] == ["raised ArithmeticError: injected"]
    assert not rec["jobs"][1]["failed"]


def test_a_nonzero_exit_fails():
    job = workloads._cli_job("bad", ["envelope", "--eps", "0.1", "--q", "1",
                                     "--target", "nowhere"], True, None)
    rec = run.run_job(job, 0, {})
    assert rec["failed"] and rec["problems"][0].startswith("exit code 2")


def test_the_seed_changes_only_the_seeded_inputs():
    for name, wl in workloads.WORKLOADS.items():
        a, b = wl.jobs(0), wl.jobs(1)
        assert [j.name for j in a] == [j.name for j in b]
        for ja, jb in zip(a, b):
            assert (ja.inputs != jb.inputs) == ja.seeded, ja.name
            assert ja.inputs == wl.jobs(0)[a.index(ja)].inputs  # deterministic
        changed = any(ja.inputs != jb.inputs for ja, jb in zip(a, b))
        assert changed == (name in SEEDED), name
    assert not any(j.seeded for j in workloads.approx_jobs(0))


def test_every_wrapped_function_is_expected_on_some_workload():
    expected = set()
    for wl in workloads.WORKLOADS.values():
        assert set(wl.expects) <= set(spans.WRAPPED_NAMES)
        expected |= set(wl.expects)
    assert expected == set(spans.WRAPPED_NAMES)


def test_tracer_patches_every_binding_and_restores_it():
    import anisoq.approx
    import anisoq.cli
    import anisoq.energy

    originals = (anisoq.energy.psi_batch, anisoq.approx.psi_batch, anisoq.cli.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        sites = {s for ss in tracer.sites.values() for s in ss}
        assert set(run.REQUIRED_SITES) <= sites
        assert anisoq.approx.psi_batch is anisoq.energy.psi_batch
        assert anisoq.energy.psi_batch is not originals[0]
        rec = run.run_pass(_envelope_jobs({"envelope.zero.q1"}), 0,
                           _reference("envelope"), tracer)
    finally:
        tracer.uninstall()
    assert (anisoq.energy.psi_batch, anisoq.approx.psi_batch, anisoq.cli.main) == originals
    assert not rec["jobs"][0]["failed"]
    per_name, totals = spans.summarize(tracer.spans)
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][1] == -1
    assert per_name["energy.psi_batch"]["calls"] > 1000
    assert per_name["energy.envelope_upper"]["gain_over_affine"] == 0.0
    assert abs(spans.rollup_gap(totals)) < 1e-9


def test_the_speed_gauge_keeps_its_share_and_runs_no_program_code():
    tracer = spans.Tracer()
    tracer.install()
    try:
        gauge = run.SpeedGauge()
        gauge.account(0.2)
    finally:
        tracer.uninstall()
    assert not tracer.spans
    assert sum(gauge.samples) >= run.PROBE_SHARE * 0.2
    n = len(gauge.samples)
    gauge.account(0.0)  # the share is already met: no further probe
    assert len(gauge.samples) == n
    assert gauge.factor() == pytest.approx(sum(gauge.samples) / n / run.PROBE_REF_S)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
