import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from anisoq import approx, cli, construction
from tests.conftest import cli_env

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


@pytest.mark.parametrize("eps", ["1e-16", "1e-70", "1e-100"])
def test_construct_tiny_eps_is_an_input_error(tmp_path, eps):
    res = run_cli(["construct", "--eps", eps], tmp_path)
    assert res.returncode == 1
    assert res.stderr == f"error: eps must lie in [1e-12, 0.2]; got {float(eps)}\n"
    with pytest.raises(ValueError, match=r"eps must lie in \[1e-12, 0.2\]"):
        construction.build(float(eps))


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
    ],
    ids=["envelope-q0", "envelope-q-2", "envelope-starts0", "certificate-q0",
         "obstruction-mesh0", "obstruction-samples0"],
)
def test_counts_below_one_rejected(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error: --")
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
        ["construct", "--eps", "0.1", "--jsn", "r.json"],
    ],
    ids=["missing-profile", "unknown-command", "no-command", "unknown-family", "q-abc",
         "eps-x", "k-below-2", "k-not-int", "k-empty", "unknown-option"],
)
def test_usage_errors_exit_1(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "usage: anisoq" in err
    assert not out.exists() and os.listdir(tmp_path) == []


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


def _lp_fails(*args, **kwargs):
    return SimpleNamespace(success=False, message="The problem is infeasible.")


def _subdivision_fails(*args, **kwargs):
    return SimpleNamespace(ok=False, diagnostics={"attempts": []})


def _residual_too_large(eps):
    raise ArithmeticError("quadratic residual 1e-10 exceeds 1e-12")


@pytest.mark.parametrize(
    "module, name, fake, args, err",
    [
        (scipy.optimize, "linprog", _lp_fails,
         ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "1", "--mesh", "3"],
         "computation failed (RuntimeError): transport LP failed: The problem is infeasible.\n"),
        (approx, "cubic_subdivision", _subdivision_fails,
         ["approx", "--profile", "twosheet", "--k", "4"],
         "computation failed (RuntimeError): cubic subdivision search failed: "
         "{'attempts': []}\n"),
        (construction, "delta_of_eps", _residual_too_large, ["construct", "--eps", "0.1"],
         "computation failed (ArithmeticError): quadratic residual 1e-10 exceeds 1e-12\n"),
    ],
    ids=["transport-lp", "cubic-subdivision", "construction-residual"],
)
def test_failed_computation_exits_2(tmp_path, monkeypatch, capsys, module, name, fake,
                                    args, err):
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
    assert cli.main(out + ["envelope", "--target", "zero"] + small) == 0
    assert cli.main(out + ["certificate"] + small) == 0
    capsys.readouterr()
    check(tmp_path / "report.json", "construction_report.schema.json")
    check(tmp_path / "envelope_zero_q1.json", "envelope_result.schema.json")
    check(tmp_path / "competitor_zero_q1.json", "triangulated_current.schema.json")
    check(tmp_path / "certificate_q1.json", "certificate.schema.json")


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
    # the winning affine competitors are not re-keyed, so ||X3|| ~ 2 / eps^2
    # above the 9.2e9 range of the vertex keys does not stop the certificate
    res = run_cli(["certificate", "--eps", eps, "--q", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "certificate_q2.json").read_text())
    assert data["valid"] is True


@pytest.mark.parametrize("eps", ["1e-5", "1e-8"])
def test_envelope_tiny_eps_writes_competitor(tmp_path, eps):
    # the affine competitor's lift reaches ||X3|| / 2 ~ 1 / eps^2, past the
    # 9.2e9 range of the integer vertex keys; the written file merges its
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
        ["approx", "--profile", "smooth", "--k", "4,8"],
        ["certificate", "--eps", "0.1", "--q", "1", "--mesh", "4",
         "--starts", "1", "--seed", "0"],
    ],
    ids=["construct", "envelope", "obstruction", "adversarial", "certified-transport", "approx",
         "certificate"],
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
