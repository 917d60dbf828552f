import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from anisoq import approx, cli, construction, currents, energy, gmeasures
from tests.conftest import cli_env
from tests.test_build_once import COMMANDS

BASE = [sys.executable, "-m", "anisoq.cli"]


def run_cli(args, out_dir):
    return subprocess.run(
        BASE + args, capture_output=True, text=True, env=cli_env(out_dir), timeout=600
    )


def read_outputs(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_construct_ok(tmp_path):
    res = run_cli(["construct", "--eps", "0.1"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "pass  delta_quadratic_residual" in res.stdout


def test_construct_json_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    res = run_cli(["construct", "--eps", "0.1", "--json", str(path)], tmp_path)
    assert res.returncode == 0
    rep = json.loads(path.read_text())
    assert rep["all_passed"] is True
    assert json.loads(json.dumps(rep)) == rep  # lossless round-trip


def test_construct_domain_error(tmp_path):
    res = run_cli(["construct", "--eps", "1.2"], tmp_path)
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("where", ["json-in-missing-dir", "out-below-a-file", "out-is-a-file"])
def test_unwritable_output_path_is_an_input_error(tmp_path, where):
    afile = tmp_path / "afile"
    afile.write_text("")
    envelope = ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero"]
    args = {
        "json-in-missing-dir": ["construct", "--eps", "0.1",
                                "--json", str(tmp_path / "nodir" / "report.json")],
        "out-below-a-file": ["--out", str(afile / "sub"), *envelope],
        "out-is-a-file": ["--out", str(afile), *envelope],
    }[where]
    res = run_cli(args, tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_empty_out_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    envelope = ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero"]
    assert cli.main(["--out", "", *envelope]) == 1
    assert capsys.readouterr().err == "error: --out must not be empty\n"
    assert os.listdir(tmp_path) == []
    # an empty $ANISOQ_OUT is unset: the default directory
    monkeypatch.setenv("ANISOQ_OUT", "")
    assert cli.main(envelope) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path / "anisoq_out")) == ["competitor_zero_q1.json",
                                                           "envelope_zero_q1.json"]


def test_empty_json_is_an_input_error(tmp_path, monkeypatch, capsys):
    # an empty --json is not an absent one: exit 1 before the report is built
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--out", "o", "construct", "--eps", "0.1", "--json", ""]) == 1
    assert capsys.readouterr() == ("", "error: --json must not be empty\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("eps", ["1e-16", "1e-70", "1e-100"])
def test_construct_tiny_eps_is_an_input_error(tmp_path, eps):
    res = run_cli(["construct", "--eps", eps], tmp_path)
    assert res.returncode == 1
    assert res.stderr == f"error: eps must lie in [1e-12, 0.2]; got {float(eps)}\n"
    with pytest.raises(ValueError, match=r"eps must lie in \[1e-12, 0.2\]"):
        construction.build(float(eps))


EPS_COMMANDS = {
    "construct": ["construct", "--json", "report.json"],
    "envelope": ["envelope", "--q", "1", "--target", "zero"],
    "certificate": ["certificate", "--q", "1"],
    "approx": ["approx", "--profile", "smooth", "--k", "4"],
    **{f"obstruction-{family}": ["obstruction", "--q", "1", "--samples", "1", "--mesh", "3",
                                 "--family", family]
       for family in ("random", "branched", "adversarial")},
}


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.0", "0.2000000001", "1e-320"])
@pytest.mark.parametrize("argv", EPS_COMMANDS.values(), ids=EPS_COMMANDS.keys())
def test_eps_out_of_range_writes_nothing(tmp_path, monkeypatch, capsys, argv, eps):
    # the input stage rejects it before the command makes its output directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), *argv, "--eps", eps]) == 1
    assert capsys.readouterr().err == f"error: eps must lie in [1e-12, 0.2]; got {float(eps)}\n"
    assert os.listdir(tmp_path) == []


def test_construct_smallest_eps_passes(tmp_path):
    res = run_cli(["construct", "--eps", "1e-12"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["envelope", "--eps", "0.1", "--q", "0", "--target", "zero"],
        ["envelope", "--eps", "0.1", "--q", "-2", "--target", "zero"],
        ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero", "--starts", "0"],
        ["certificate", "--eps", "0.1", "--q", "0"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--mesh", "0"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "0"],
        ["envelope", "--eps", "0.1", "--q", "9223372036854775808", "--target", "zero"],
        ["certificate", "--eps", "0.1", "--q", "9223372036854775808"],
    ],
    ids=["envelope-q0", "envelope-q-2", "envelope-starts0", "certificate-q0",
         "obstruction-mesh0", "obstruction-samples0", "envelope-q-above-int64",
         "certificate-q-above-int64"],
)
def test_counts_below_one_rejected(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error: --")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args",
    [
        ["obstruction", "--eps", "0.1", "--q", "1", "--family", "random"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--family", "branched"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--family", "adversarial"],
        ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero"],
    ],
    ids=["random", "branched", "adversarial", "envelope"],
)
def test_negative_seed_rejected(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)] + args + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("samples", ["7", "10"])
def test_branched_samples_beyond_family_rejected(tmp_path, samples):
    res = run_cli(["obstruction", "--eps", "0.1", "--q", "2", "--samples", samples,
                   "--family", "branched"], tmp_path)
    assert res.returncode == 1
    assert res.stderr == ("error: --samples must be <= 6 for --family branched, "
                          "which has 6 amplitudes\n")
    assert res.stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args",
    [
        ["approx"],
        ["bogus"],
        [],
        ["obstruction", "--eps", "0.1", "--q", "1", "--family", "spiral"],
        ["obstruction", "--eps", "0.1", "--q", "abc"],
        ["envelope", "--eps", "x", "--q", "1", "--target", "zero"],
        ["approx", "--profile", "smooth", "--k", "4,1"],
        ["approx", "--profile", "smooth", "--k", "4,x"],
        ["approx", "--profile", "smooth", "--k", ""],
        ["approx", "--profile", "smooth", "--k", "8,4"],
        ["approx", "--profile", "smooth", "--k", "4,4"],
        ["approx", "--profile", "twosheet", "--k", "4,171"],
        ["approx", "--profile", "smooth", "--k", "2048"],
        ["construct", "--eps", "0.1", "--jsn", "r.json"],
    ],
    ids=["missing-profile", "unknown-command", "no-command", "unknown-family", "q-abc",
         "eps-x", "k-below-2", "k-not-int", "k-empty", "k-decreasing", "k-repeated",
         "k-above-170", "k-far-above-170", "unknown-option"],
)
def test_usage_errors_exit_1(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "usage: anisoq" in err
    assert not out.exists() and os.listdir(tmp_path) == []


def test_k_bound_is_the_cube_search_floor():
    # k = K_MAX starts the cube search at or above its floor, K_MAX + 1 below it
    assert approx.K_MAX == 170
    assert 1.0 / approx.K_MAX / 12.0 >= approx.R_MIN_FRAC > 1.0 / (approx.K_MAX + 1) / 12.0
    args = cli.build_parser().parse_args(["approx", "--profile", "smooth", "--k", "4,170"])
    assert args.k == [4, 170]


USAGE_ERRORS = [["bogus"], ["obstruction", "--eps", "0.1", "--q", "abc"],
                ["approx", "--profile", "smooth", "--k", "8,4"]]


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    init, made = cli._Parser.__init__, []

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        per_call = []
        for i, argv in enumerate(COMMANDS):
            n = len(made)
            assert cli.main(["--out", str(tmp_path / str(i)), *argv]) == cli.EXIT_OK
            per_call.append(len(made) - n)
            n = len(made)
            assert cli.main(USAGE_ERRORS[i % len(USAGE_ERRORS)]) == cli.EXIT_USAGE
            per_call.append(len(made) - n)
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    # the first call builds the top parser and one parser per command
    assert per_call == [6] + [0] * (2 * len(COMMANDS) - 1)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_main_repeats_after_a_usage_error(tmp_path, capsys, argv):
    runs = []
    for name in ("before", "after"):
        out = tmp_path / name
        assert cli.main(["--out", str(out), *argv]) == cli.EXIT_OK
        # construct writes no file without --json
        runs.append((read_outputs(out) if out.exists() else {}, capsys.readouterr().out))
        assert cli.main(["--out", str(out), *USAGE_ERRORS[1]]) == cli.EXIT_USAGE
        assert "usage: anisoq obstruction" in capsys.readouterr().err
    # the outputs name their directory only in the "wrote" lines
    before, after = runs
    assert before[0] == after[0]
    assert before[1].replace(str(tmp_path / "before"), "") == \
        after[1].replace(str(tmp_path / "after"), "")


def test_assertion_failure_exits_2(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("bracket ordering violated: lower > upper")

    monkeypatch.setattr(cli, "envelope_bracket", fail)
    code = cli.main(["--out", str(tmp_path), "envelope", "--eps", "0.1", "--q", "1",
                     "--target", "zero"])
    assert code == 2
    assert capsys.readouterr().err == (
        "assertion failed: bracket ordering violated: lower > upper\n"
    )


def test_envelope_bracket_ordering_is_checked(tmp_path, monkeypatch, capsys):
    # a lower bound above the upper one fails the bracket's own check
    monkeypatch.setattr(energy, "envelope_lower_at_zero", lambda b, q: (10.0, {}))
    code = cli.main(["--out", str(tmp_path), "envelope", "--eps", "0.1", "--q", "1",
                     "--target", "zero"])
    assert code == 2
    assert capsys.readouterr().err == (
        "assertion failed: bracket ordering violated: lower > upper\n"
    )
    assert os.listdir(tmp_path) == []


def _lp_fails(*args, **kwargs):
    return SimpleNamespace(success=False, message="The problem is infeasible.")


def _residual_too_large(eps):
    raise ArithmeticError("quadratic residual 1e-10 exceeds 1e-12")


def _unequal_masses(mu, nu):
    raise ValueError("transport distance needs equal masses; got 1.0 and 0.5")


@pytest.mark.parametrize(
    "patches, args, err",
    [
        # no certificate holds, so the LP runs, and fails
        ([(gmeasures, "CERT_RTOL", -1.0), (scipy.optimize, "linprog", _lp_fails)],
         ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "1", "--mesh", "3"],
         "computation failed (RuntimeError): transport LP failed: The problem is infeasible.\n"),
        # the search starts at r = side / 48 at k = 4, below r_min = side
        ([(approx, "R_MIN_FRAC", 1.0)],
         ["approx", "--profile", "twosheet", "--k", "4"],
         "computation failed (RuntimeError): cubic subdivision search failed: "
         "{'attempts': [], 'reason': 'r fell below r_min'}\n"),
        ([(construction, "delta_of_eps", _residual_too_large)], ["construct", "--eps", "0.1"],
         "computation failed (ArithmeticError): quadratic residual 1e-10 exceeds 1e-12\n"),
        # a library ValueError inside a command is a failed computation, not a usage error
        ([(gmeasures, "transport_distance", _unequal_masses)],
         ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "1", "--mesh", "3"],
         "computation failed (ValueError): transport distance needs equal masses; "
         "got 1.0 and 0.5\n"),
        ([(construction, "closed_forms", lambda eps, delta: None)],
         ["construct", "--eps", "0.1"],
         "computation failed (TypeError): 'NoneType' object is not subscriptable\n"),
    ],
    ids=["transport-lp", "cubic-subdivision", "construction-residual", "value-error",
         "type-error"],
)
def test_failed_computation_exits_2(tmp_path, monkeypatch, capsys, patches, args, err):
    for module, name, fake in patches:
        monkeypatch.setattr(module, name, fake)
    assert cli.main(["--out", str(tmp_path)] + args) == 2
    assert capsys.readouterr().err == err


def test_json_outputs_match_schemas(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schemas = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")

    def check(path, schema_name):
        with open(os.path.join(schemas, schema_name)) as fh:
            schema = json.load(fh)
        jsonschema.validate(json.loads(path.read_text()), schema)

    out = ["--out", str(tmp_path)]
    small = ["--eps", "0.1", "--q", "1", "--mesh", "4", "--starts", "1", "--seed", "0"]
    assert cli.main(out + ["construct", "--eps", "0.1", "--json",
                           str(tmp_path / "report.json")]) == 0
    targets = ["zero", "ray1", "ray2", "ray3", "nearray3"]
    for target in targets:
        assert cli.main(out + ["envelope", "--target", target] + small) == 0
    assert cli.main(out + ["certificate"] + small) == 0
    assert cli.main(out + ["certificate", "--eps", "0.1", "--q", "2"]) == 0
    capsys.readouterr()
    check(tmp_path / "report.json", "construction_report.schema.json")
    for target in targets:
        check(tmp_path / f"envelope_{target}_q1.json", "envelope_result.schema.json")
        check(tmp_path / f"competitor_{target}_q1.json", "triangulated_current.schema.json")
    check(tmp_path / "certificate_q1.json", "certificate.schema.json")
    check(tmp_path / "certificate_q2.json", "certificate.schema.json")


def test_envelope_ray_and_zero(tmp_path):
    res = run_cli(
        ["envelope", "--eps", "0.1", "--q", "1", "--target", "ray1",
         "--mesh", "4", "--starts", "1", "--seed", "0"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "envelope_ray1_q1.json").read_text())
    assert data["upper"] == 0.0
    res = run_cli(
        ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero",
         "--mesh", "4", "--starts", "1", "--seed", "0"],
        tmp_path,
    )
    assert res.returncode == 0
    data = json.loads((tmp_path / "envelope_zero_q1.json").text if False else
                      (tmp_path / "envelope_zero_q1.json").read_text())
    assert data["lower"] > 0.0
    assert data["lower"] <= data["upper"] + 1e-9


def test_envelope_near_ray_target(tmp_path):
    # X3 + 1e-3 E11: the ray-3 ring undercuts the affine graph's 639,999
    jsonschema = pytest.importorskip("jsonschema")
    from anisoq.currents import TriangulatedCurrent

    res = run_cli(["envelope", "--eps", "0.05", "--q", "1", "--target", "nearray3"], tmp_path)
    assert res.returncode == 0, res.stderr
    result = json.loads((tmp_path / "envelope_nearray3_q1.json").read_text())
    with open(os.path.join(os.path.dirname(__file__), "..", "docs", "schemas",
                           "envelope_result.schema.json")) as fh:
        jsonschema.validate(result, json.load(fh))
    assert result["lower"] == 0.0 and 0.0 < result["upper"] < 10.0
    assert result["upper_meta"]["parts"][0]["method"] == "ray-ring"
    comp = json.loads((tmp_path / result["competitor_file"]).read_text())
    value = energy.psi_mass_of_current(TriangulatedCurrent.from_json_obj(comp),
                                       energy.PsiConfig.for_eps(0.05))
    assert value == pytest.approx(result["upper"], rel=1e-12)


def test_obstruction_random_csv(tmp_path):
    res = run_cli(
        ["obstruction", "--eps", "0.1", "--q", "2", "--samples", "2",
         "--seed", "7", "--family", "random", "--mesh", "8"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    csv_path = tmp_path / "obstruction_random_q2_s7.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "graph_id,seed,Q,eps,mH,mV,mM,ratio,w1_dist_mu0"
    assert len(lines) == 3


@pytest.mark.parametrize("n", [1, 6, 12, 24])
def test_upsample_matrix_matches_grid_interpolator(n):
    """The adversarial search's up-sampling, against the per-sheet bilinear
    interpolator and bump it replaced."""
    from scipy.interpolate import RegularGridInterpolator

    m_ctl = 3
    c = np.random.default_rng(n).normal(size=(2, m_ctl, m_ctl, 2))
    grid = np.linspace(0.0, 1.0, n + 1)
    cs = np.linspace(0.0, 1.0, m_ctl + 2)
    bump = np.outer(np.sin(np.pi * grid), np.sin(np.pi * grid))
    pts = np.array([[a, b] for a in grid for b in grid])
    ref = np.zeros((2, n + 1, n + 1, 2))
    for s in range(2):
        for d in range(2):
            padded = np.zeros((m_ctl + 2, m_ctl + 2))
            padded[1:-1, 1:-1] = c[s, :, :, d]
            itp = RegularGridInterpolator((cs, cs), padded)
            ref[s, :, :, d] = itp(pts).reshape(n + 1, n + 1) * bump
    up = cli._upsample_matrix(n, m_ctl)
    vals = (up @ c.reshape(2, m_ctl * m_ctl, 2)).reshape(ref.shape)
    np.testing.assert_allclose(vals, ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref)))


def test_obstruction_branched(tmp_path):
    res = run_cli(
        ["obstruction", "--eps", "0.1", "--q", "2", "--samples", "2",
         "--seed", "0", "--family", "branched"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr


def test_adversarial_samples_is_the_search_budget(tmp_path, capsys):
    outputs = {}
    for samples in (1, 8):
        out = tmp_path / f"s{samples}"
        assert cli.main(["--out", str(out), "obstruction", "--eps", "0.1", "--q", "1",
                         "--samples", str(samples), "--seed", "0", "--family", "adversarial",
                         "--mesh", "4"]) == 0
        outputs[samples] = read_outputs(out)
    capsys.readouterr()
    # the frontier holds the start and one row per iteration
    rows = {s: out["adversarial_frontier_q1_s0.csv"].decode().splitlines()[1:]
            for s, out in outputs.items()}
    assert len(rows[1]) <= 2 and len(rows[8]) == 9
    assert outputs[1].keys() == outputs[8].keys()
    for name in outputs[1]:
        assert outputs[1][name] != outputs[8][name], name


def test_adversarial_search_tries_each_control_once_per_iteration(tmp_path, monkeypatch,
                                                                   capsys):
    # a control index drawn twice in one iteration is not evaluated again:
    # both signs already failed there at the same controls and step
    graph_report, calls = cli._graph_report, []

    def counted(*args):
        calls.append(args)
        return graph_report(*args)

    monkeypatch.setattr(cli, "_graph_report", counted)
    assert cli.main(["--out", str(tmp_path), "obstruction", "--eps", "0.1", "--q", "1",
                     "--samples", "8", "--seed", "0", "--family", "adversarial",
                     "--mesh", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 54


@pytest.mark.parametrize(
    "sizes, err",
    [
        (["--q", "1", "--mesh", "1025"],
         "--q 1 and --mesh 1025: 2101250 triangles per graph"),
        (["--q", "2", "--mesh", "1024", "--family", "adversarial"],
         "--q 2 and --mesh 1024: 4194304 triangles per graph"),
        (["--q", "1", "--mesh", "200000"],
         "--q 1 and --mesh 200000: 80000000000 triangles per graph"),
        (["--q", "2115", "--mesh", "1", "--family", "branched"],
         "--q 2115: 2098080 triangles per graph"),
        (["--q", "9223372036854775807", "--family", "branched"],
         "--q 9223372036854775807: 9149585060559937600544 triangles per graph"),
    ],
    ids=["random-mesh", "adversarial-q", "random-huge-mesh", "branched-q", "branched-q-max"],
)
def test_obstruction_triangle_budget(tmp_path, monkeypatch, capsys, sizes, err):
    # the check runs before the command: nothing is generated or written
    monkeypatch.setattr(cli, "cmd_obstruction", None)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "obstruction", "--eps", "0.1", *sizes]) == 1
    assert capsys.readouterr().err == f"error: {err}, more than the 2097152 allowed\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "sizes",
    [["--q", "1", "--mesh", "1024"], ["--q", "8", "--mesh", "362"],
     ["--q", "2114", "--family", "branched"]],
    ids=["random", "random-q8", "branched"],
)
def test_obstruction_at_the_triangle_budget_runs(monkeypatch, sizes):
    # the largest runs within the budget reach the command (stubbed here)
    assert cli.OBSTRUCTION_MAX_TRIANGLES == 2**21
    ran = []
    monkeypatch.setattr(cli, "cmd_obstruction", lambda args: ran.append(args) or cli.EXIT_OK)
    assert cli.main(["obstruction", "--eps", "0.1", *sizes]) == 0
    assert len(ran) == 1


def _fake_report(ratio):
    def report(*args, **kwargs):
        return {"mH": 1.0, "mV": 1.0, "mM": ratio, "ratio": ratio, "w1_dist_mu0": 0.5}
    return report


def test_obstruction_ratio_check_reads_the_lower_bound_constant(tmp_path, monkeypatch,
                                                                capsys):
    assert cli.LOWER_BOUND_RATIO_CONSTANT is energy.LOWER_BOUND_RATIO_CONSTANT
    args = ["--out", str(tmp_path), "obstruction", "--eps", "0.1", "--q", "1",
            "--samples", "1", "--mesh", "3"]
    monkeypatch.setattr(gmeasures, "obstruction_report", _fake_report(0.004))
    assert cli.main(args) == 2
    assert capsys.readouterr().err == ("assertion failed: mixed/vertical ratio below 1/200 - "
                                       "1e-8 for: random_0\n")
    monkeypatch.setattr(cli, "LOWER_BOUND_RATIO_CONSTANT", 0.004)
    assert cli.main(args) == 0


def _branched_one_fold_too_many(branched_graph):
    return lambda q, *args, **kwargs: branched_graph(q + 1, *args, **kwargs)


def _affine_not_zero_boundary(seed, lip, q, mesh):
    return currents.FunctionalQGraph.affine(mesh, np.array([q]), np.zeros((1, 2)),
                                            np.eye(2)[None])


@pytest.mark.parametrize(
    "family, name, fake, err",
    [
        ("branched", "branched_graph", _branched_one_fold_too_many(currents.branched_graph),
         "assertion failed: current boundary is not q times the given loop\n"),
        ("random", "random_lipschitz_graph", _affine_not_zero_boundary,
         "assertion failed: obstruction report requires a zero-boundary graph\n"),
    ],
    ids=["branched", "random"],
)
def test_generated_current_invariants_exit_2(tmp_path, monkeypatch, capsys, family, name,
                                             fake, err):
    # a generator that breaks its own boundary invariant is not a usage error
    monkeypatch.setattr(currents, name, fake)
    code = cli.main(["--out", str(tmp_path), "obstruction", "--family", family, "--eps", "0.1",
                     "--q", "2", "--samples", "1", "--mesh", "3"])
    stderr = capsys.readouterr().err
    assert code == 2
    assert stderr == err and "Traceback" not in stderr
    assert os.listdir(tmp_path) == []


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    def report(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape "
                          "(1152921504606846976,) and data type float64")

    monkeypatch.setattr(gmeasures, "obstruction_report", report)
    code = cli.main(["--out", str(tmp_path), "obstruction", "--eps", "0.1", "--q", "1",
                     "--samples", "1", "--mesh", "3"])
    stderr = capsys.readouterr().err
    assert code == 2
    assert stderr == ("computation failed (MemoryError): Unable to allocate 8.00 EiB for an "
                      "array with shape (1152921504606846976,) and data type float64\n")
    assert "Traceback" not in stderr
    assert os.listdir(tmp_path) == []


def test_approx_checks_the_declared_lipschitz_constant(tmp_path, monkeypatch, capsys):
    smooth = approx.smooth_profile
    monkeypatch.setattr(approx, "smooth_profile",
                        lambda: dataclasses.replace(smooth(), lipschitz=0.0))
    assert cli.main(["--out", str(tmp_path), "approx", "--profile", "smooth", "--k", "4"]) == 2
    assert capsys.readouterr().err == (
        "assertion failed: declared Lipschitz constant 0.0 violated on sampled increments\n")
    assert os.listdir(tmp_path) == []


def test_approx_checks_the_lipschitz_bound_per_k(tmp_path, monkeypatch, capsys):
    def sequence(f, k, cfg, e_ref):
        return None, {"r": 0.1, "covered": 1.0, "lipschitz": 30.5, "energy_psi_bar": 1.0,
                      "bad_set_full": 0.0, "bad_set_shrunk": 0.0, "lip_bound": 30.0}

    monkeypatch.setattr(approx, "piecewise_affine_sequence", sequence)
    assert cli.main(["--out", str(tmp_path), "approx", "--profile", "smooth", "--k", "4,8"]) == 2
    assert capsys.readouterr().err == (
        "assertion failed: Lipschitz bound lip <= lip_tol violated at k=4\n")
    assert os.listdir(tmp_path) == []


def test_approx_checks_the_boundary_trace_per_k(tmp_path, monkeypatch, capsys):
    def sequence(f, k, cfg, e_ref):
        return None, {"r": 0.1, "covered": 1.0, "lipschitz": 1.0, "energy_psi_bar": 1.0,
                      "bad_set_full": 0.0, "bad_set_shrunk": 0.0, "lip_bound": 30.0,
                      "boundary_trace_error": 0.0 if k == 4 else 2e-9}

    monkeypatch.setattr(approx, "piecewise_affine_sequence", sequence)
    assert cli.main(["--out", str(tmp_path), "approx", "--profile", "smooth", "--k", "4,8"]) == 2
    assert capsys.readouterr().err == "assertion failed: boundary trace error above 1e-9 at k=8\n"
    assert os.listdir(tmp_path) == []


APPROX_HEADER = ("k,r_k,covered,lip,energy_psi_bar,energy_ref,abs_err,bad_full,bad_full_tol,"
                 "bad_shrunk,bad_shrunk_tol,lip_tol")
# approx --k 4,8, pinned as literals: a refactor of the cube search, the blend or the
# quadrature grids must write every field unchanged
APPROX_ROWS_4_8 = {
    "smooth": [
        "4,0.020833333333333332,0.87890625,0.8882197825016409,1.2735531178267199,"
        "1.273483236630307,6.988119641282431e-05,0.12109375,0.5,0.505615234375,0.75,"
        "33.194689145077135",
        "8,0.010416666666666666,0.9384765625,0.8882197825016409,1.273543453748676,"
        "1.273483236630307,6.0217118369010336e-05,0.0615234375,0.25,0.2814788818359377,0.375,"
        "33.194689145077135",
    ],
    "twosheet": [
        "4,0.020833333333333332,0.87890625,0.5749894037878437,2.163709128605367,"
        "2.163698279777708,1.0848827659337701e-05,0.12109375,0.5,0.505615234375,0.75,"
        "27.539822368615503",
        "8,0.010416666666666666,0.9384765625,0.5749900277310651,2.1637127769365847,"
        "2.163698279777708,1.449715887691383e-05,0.0615234375,0.25,0.2814788818359377,0.375,"
        "27.539822368615503",
    ],
}


@pytest.mark.parametrize("profile", ["smooth", "twosheet"])
def test_approx_csv_is_pinned(tmp_path, capsys, profile):
    assert cli.main(["--out", str(tmp_path), "approx", "--profile", profile,
                     "--k", "4,8"]) == 0
    capsys.readouterr()
    lines = (tmp_path / f"approx_{profile}.csv").read_text().splitlines()
    assert lines[0] == APPROX_HEADER
    assert [row.split(",") for row in lines[1:]] == \
        [row.split(",") for row in APPROX_ROWS_4_8[profile]]


def test_certificate_valid(tmp_path):
    res = run_cli(
        ["certificate", "--eps", "0.1", "--q", "1", "--mesh", "4",
         "--starts", "1", "--seed", "0"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "certificate_q1.json").read_text())
    assert data["valid"] is True
    assert data["gap"] > 0.0


@pytest.mark.parametrize("eps", ["1e-5", "1e-8", "1e-12"])
def test_certificate_tiny_eps_valid(tmp_path, eps):
    # ||X3|| ~ 2 / eps^2 reaches 2e24 at eps 1e-12, and the certificate holds
    res = run_cli(["certificate", "--eps", eps, "--q", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "certificate_q2.json").read_text())
    assert data["valid"] is True


@pytest.mark.parametrize("eps", ["1e-5", "1e-8"])
def test_envelope_tiny_eps_writes_competitor(tmp_path, eps):
    # the affine competitor's lift reaches ||X3|| / 2 ~ 1 / eps^2, past 9.2e9,
    # where 1e9 times a coordinate passes 2^63; the written file merges its
    # vertices at that scale too and re-evaluates to the reported upper bound
    from anisoq.currents import TriangulatedCurrent
    from anisoq.energy import PsiConfig, psi_mass_of_current

    res = run_cli(["envelope", "--eps", eps, "--q", "2", "--target", "ray3"], tmp_path)
    assert res.returncode == 0, res.stderr
    result = json.loads((tmp_path / "envelope_ray3_q2.json").read_text())
    comp = json.loads((tmp_path / result["competitor_file"]).read_text())
    assert len(comp["vertices"]) == 4 and np.max(np.abs(comp["vertices"])) > 9.2e9
    value = psi_mass_of_current(TriangulatedCurrent.from_json_obj(comp),
                                PsiConfig.for_eps(float(eps)))
    assert value == pytest.approx(result["upper"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--eps", "0.1", "--json", "report.json"],
        ["envelope", "--eps", "0.1", "--q", "1", "--target", "zero",
         "--mesh", "4", "--starts", "2", "--seed", "3"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "2",
         "--seed", "5", "--family", "random", "--mesh", "6"],
        ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "4",
         "--seed", "5", "--family", "adversarial", "--mesh", "6"],
        ["obstruction", "--eps", "0.1", "--q", "2", "--samples", "2",
         "--seed", "0", "--family", "random", "--mesh", "24"],
        ["obstruction", "--eps", "0.1", "--q", "8", "--samples", "2",
         "--seed", "0", "--family", "random", "--mesh", "8"],
        ["approx", "--profile", "smooth", "--k", "4,8"],
        ["certificate", "--eps", "0.1", "--q", "1", "--mesh", "4",
         "--starts", "1", "--seed", "0"],
    ],
    ids=["construct", "envelope", "obstruction", "adversarial", "certified-transport",
         "obstruction-q8", "approx", "certificate"],
)
def test_determinism_byte_identical(tmp_path, args):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    if args[0] == "construct":
        a1 = args[:-1] + [str(d1 / "report.json")]
        a2 = args[:-1] + [str(d2 / "report.json")]
    else:
        a1 = a2 = args
    r1 = run_cli(a1, d1)
    r2 = run_cli(a2, d2)
    assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
    assert read_outputs(d1) == read_outputs(d2)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    """The reader of stdout leaves after the first line, as `| head -1` does.

    construct prints its checks, then waits to open its --json path, here a
    FIFO, until the test opens the other end, after it closed stdout: at the
    latest the closing "wrote" line finds no reader.  Buffered, no line is
    written before the command ends, so the reader leaves at once.
    """
    fifo = tmp_path / "report.json"
    os.mkfifo(fifo)
    env = cli_env(tmp_path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(BASE + ["construct", "--eps", "0.1", "--json", str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        if unbuffered:
            assert proc.stdout.readline().startswith("pass  ")
        proc.stdout.close()
        # non-blocking: the command may have met the closed pipe before the FIFO
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert proc.wait(timeout=120) == 1
        finally:
            os.close(fd)
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
