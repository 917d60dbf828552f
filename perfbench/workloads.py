"""The benchmark's workloads: jobs, the inputs made from the seed, output checks.

A job is one call into anisoq's public API.  Wherever a README command
exists the call is `anisoq.cli.main(argv)` in-process, with outputs written
to a temporary directory; the `identities` workload calls the library,
because no command reaches slicing, boundary chains or the batch classifier.

Each job has
* `inputs`: everything the program receives (argv, or generator seeds);
* `seeded`: whether those inputs depend on the workload seed;
* `execute(out_dir)`: the timed call;
* `check(raw, out_dir) -> (values, problems)`: untimed invariant checks on
  the outputs, returning the numeric outputs compared with `reference.json`
  (for seeded jobs only at DEFAULT_SEED) within `rtol * max(1, |ref|)`.

Job sizes are a fraction of the README's documented arguments, so that one
pass over a workload takes a few seconds and every run repeats it; the
module doc (README.md beside this file) says why.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
EPS = 0.1
RATIO_FLOOR = 1.0 / 200.0 - 1e-8  # the empirical mixed/vertical constant, as the CLI checks it
E12 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


@dataclass
class Job:
    name: str
    inputs: tuple
    seeded: bool
    execute: Callable
    check: Callable
    rtol: float = 1e-10
    root: str | None = None  # span name for library jobs; CLI jobs open `cli.main`


# -- CLI jobs ------------------------------------------------------------------------


def _cli(argv):
    def execute(out_dir):
        from anisoq import cli

        args = ["--out", out_dir] + [a.replace("{out}", out_dir) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, err.getvalue()

    return execute


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_job(name, argv, seeded, parse, rtol=1e-10):
    def check(raw, out_dir):
        code, err = raw
        if code != 0:
            return {}, [f"exit code {code}: {err.strip()[-300:]}"]
        return parse(out_dir)

    return Job(name=name, inputs=tuple(argv), seeded=seeded, execute=_cli(argv),
               check=check, rtol=rtol)


def _parse_envelope(target, q):
    def parse(out_dir):
        obj = _read_json(out_dir, f"envelope_{target}_q{q}.json")
        up, lo = obj["upper"], obj["lower"]
        problems = []
        if lo > up + 1e-9:
            problems.append(f"bracket order: lower {lo!r} > upper {up!r} + 1e-9")
        if target == "zero":
            if not lo > 0.0:
                problems.append(f"lower bound at zero not positive: {lo!r}")
            if up > q + 1e-12:
                problems.append(f"upper {up!r} above the affine competitor value {q}")
        elif up != 0.0:
            problems.append(f"upper bound at a ray is {up!r}, not 0")
        return {"upper": up, "lower": lo, "gap": obj["gap"]}, problems

    return parse


def _parse_certificate(q):
    def parse(out_dir):
        obj = _read_json(out_dir, f"certificate_q{q}.json")
        problems = []
        if not obj["valid"]:
            problems.append("certificate reported invalid")
        if not all(lam > 0.0 for lam in obj["lambda"]):
            problems.append("non-positive certificate weight")
        if obj["residual_sum"] > 1e-12 or obj["residual_affine"] > 1e-10:
            problems.append("certificate residuals above 1e-12 / 1e-10")
        if not obj["gap"] > 0.0:
            problems.append(f"certificate gap not positive: {obj['gap']!r}")
        return {"gap": obj["gap"]}, problems

    return parse


def _parse_construct(out_dir):
    report = _read_json(out_dir, "report.json")
    if report["all_passed"]:
        return {}, []
    return {}, [f"construction check failed: {c['name']}"
                for c in report["checks"] if not c["passed"]]


def _parse_obstruction(family, q, seed, n_rows):
    def parse(out_dir):
        rows = _read_csv(out_dir, f"obstruction_{family}_q{q}_s{seed}.csv")
        problems = []
        if len(rows) != n_rows:
            problems.append(f"{len(rows)} rows, expected {n_rows}")
        values = {}
        for row in rows:
            m_v, m_m = float(row["mV"]), float(row["mM"])
            if m_v > 0.0 and m_m / m_v < RATIO_FLOOR:
                problems.append(f"{row['graph_id']}: mixed/vertical ratio below 1/200")
            for col in ("mH", "mV", "mM", "w1_dist_mu0"):
                val = float(row[col])
                if not (math.isfinite(val) and val >= 0.0):
                    problems.append(f"{row['graph_id']}: {col} = {val!r}")
                values[f"{row['graph_id']}.{col}"] = val
        return values, problems

    return parse


def _parse_approx(profile, ks):
    def parse(out_dir):
        rows = _read_csv(out_dir, f"approx_{profile}.csv")
        problems = []
        if [int(r["k"]) for r in rows] != list(ks):
            problems.append("approx rows do not match the k list")
        values = {}
        errs = []
        for row in rows:
            k = int(row["k"])
            if float(row["bad_full"]) > float(row["bad_full_tol"]):
                problems.append(f"k={k}: bad set of the full cubes above 2/k")
            if float(row["bad_shrunk"]) > float(row["bad_shrunk_tol"]):
                problems.append(f"k={k}: bad set of the shrunken cubes above 3/k")
            if float(row["lip"]) > float(row["lip_tol"]):
                problems.append(f"k={k}: measured Lipschitz constant above 10 (L + 2)")
            values[f"k{k}.energy_psi_bar"] = float(row["energy_psi_bar"])
            values[f"k{k}.abs_err"] = float(row["abs_err"])
            errs.append(float(row["abs_err"]))
        if profile == "smooth" and any(b >= a for a, b in zip(errs, errs[1:])):
            problems.append("smooth energy error not strictly decreasing in k")
        return values, problems

    return parse


# -- library jobs (identities) -----------------------------------------------------------


def _unit_mesh(n):
    from anisoq import currents

    return currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)


def chain_suite(seed):
    """The acceptance C05 suite; seed 0 reproduces its graph seeds exactly."""
    spec = [("random", q, 1000 * q + i + 10_000 * seed) for q in (1, 2, 3) for i in range(4)]
    spec += [("steep", 1, t) for t in (3.0, 4.0, 6.0)]
    spec += [("ray", 2, i) for i in range(3)]
    spec += [("branched", 2, amp) for amp in (1.0, 8.0)]
    return tuple(spec)


def _chain_execute(spec):
    def execute(out_dir):
        from anisoq import construction, currents

        b = construction.build(EPS)
        out = []
        for kind, q, param in spec:
            if kind == "branched":
                T = currents.branched_graph(q, param, 1.0, n_r=10, n_theta=24)
                area, loop = currents.polygon_disk_area(24), currents.disk_boundary_loop(24)
            else:
                if kind == "random":
                    g = currents.random_lipschitz_graph(param, 2.0, q, _unit_mesh(6))
                elif kind == "steep":
                    g = currents.steep_plateau_graph(param, q, _unit_mesh(12))
                else:
                    g = currents.ray_plateau_graph(b.X[param], q, _unit_mesh(12))
                T = currents.triangulate(g)
                area, loop = 1.0, np.array(g.mesh.boundary_nodes())
            rep = currents.chain_report(T, q, EPS, domain_area=area)
            pm, _parts = T.partition(EPS)
            out.append((rep, pm, T.boundary_equals_loop(loop, q)))
        return out

    return execute


def _chain_check(raw, out_dir):
    values, problems = {}, []
    for idx, (rep, pm, boundary_ok) in enumerate(raw):
        tag = f"g{idx:02d}"
        for key in ("est0_value", "est0_exact_atoms", "est1_slack"):
            if rep[key] < -1e-8:
                problems.append(f"{tag}: {key} = {rep[key]!r} < -1e-8")
            values[f"{tag}.{key}"] = rep[key]
        if pm.mV > 0.0 and pm.mM / pm.mV < RATIO_FLOOR:
            problems.append(f"{tag}: mixed/vertical ratio below 1/200")
        if not boundary_ok:
            problems.append(f"{tag}: boundary chain is not q times the domain loop")
    return values, problems


def stokes_suite(seed, n=100):
    """(q, graph seed) pairs; seed 0 reproduces the acceptance C04 draws."""
    rng = np.random.default_rng(77 + seed)
    return tuple((int(rng.integers(1, 4)), int(rng.integers(2**31))) for _ in range(n))


def _stokes_execute(spec):
    def execute(out_dir):
        from anisoq import currents

        worst = 0.0
        for q, gseed in spec:
            g = currents.random_lipschitz_graph(gseed, 2.0, q, _unit_mesh(5))
            bary = currents.triangulate(g).gaussian_image().barycenter()
            worst = max(worst, float(np.linalg.norm(bary - q * E12)))
        return worst

    return execute


def _stokes_check(worst, out_dir):
    if worst <= 1e-8:
        return {}, []
    return {}, [f"Gaussian-image barycenter off q e12 by {worst!r} > 1e-8"]


COAREA_CURRENTS = (("flat_disk", 1, 16, 48), ("branched_q2", 2, 16, 48))
COAREA_RADII = 5


def _coarea_execute(spec):
    def execute(out_dir):
        from anisoq import currents

        out = {}
        for name, q, n_r, n_theta in spec:
            if q == 1:
                T = currents.flat_disk_current(n_r=n_r, n_theta=n_theta)
            else:
                T = currents.branched_graph(q, 1.0, 1.0, n_r=n_r, n_theta=n_theta)
            rhos = np.linspace(0.25, 0.5, COAREA_RADII)
            vals = [T.slice_mass(np.zeros(4), rho) for rho in rhos]
            out[name] = (float(np.trapezoid(vals, rhos)),
                         T.mass_in_ball(np.zeros(4), 0.5, subdiv=24))
        return out

    return execute


def _coarea_check(raw, out_dir):
    values, problems = {}, []
    for name, (integral, ball) in raw.items():
        if integral > 1.02 * ball:
            problems.append(f"{name}: coarea integral {integral!r} > 1.02 * {ball!r}")
        values[f"{name}.slice_integral"] = integral
        values[f"{name}.mass_in_ball"] = ball
    return values, problems


# -- workloads -------------------------------------------------------------------------


def envelope_jobs(seed):
    s = str(seed)
    jobs = []
    for q in (1, 2):
        argv = ["envelope", "--eps", "0.1", "--q", str(q), "--target", "zero",
                "--mesh", "6", "--starts", "2", "--seed", s]
        jobs.append(_cli_job(f"envelope.zero.q{q}", argv, True, _parse_envelope("zero", q),
                             rtol=1e-12))
    for ray in ("ray1", "ray2", "ray3"):
        argv = ["envelope", "--eps", "0.1", "--q", "2", "--target", ray,
                "--mesh", "8", "--starts", "4", "--seed", s]
        jobs.append(_cli_job(f"envelope.{ray}.q2", argv, True, _parse_envelope(ray, 2),
                             rtol=1e-12))
    for q in (1, 2):
        argv = ["certificate", "--eps", "0.1", "--q", str(q), "--seed", s]
        jobs.append(_cli_job(f"certificate.q{q}", argv, True, _parse_certificate(q),
                             rtol=1e-12))
    for eps in ("0.02", "0.05", "0.1", "0.15", "0.2"):
        argv = ["construct", "--eps", eps, "--json", "{out}/report.json"]
        jobs.append(_cli_job(f"construct.eps{eps}", argv, False, _parse_construct))
    return jobs


def obstruction_jobs(seed):
    s = str(seed)
    cases = [  # (family, q, mesh, samples, rows written)
        ("random", 2, 16, 2, 2),
        ("random", 4, 16, 1, 1),
        ("branched", 2, None, 2, 2),
        ("adversarial", 1, 6, 8, 1),
    ]
    jobs = []
    for family, q, mesh, samples, n_rows in cases:
        argv = ["obstruction", "--eps", "0.1", "--q", str(q), "--samples", str(samples),
                "--seed", s, "--family", family]
        if mesh is not None:
            argv += ["--mesh", str(mesh)]
        jobs.append(_cli_job(f"obstruction.{family}.q{q}", argv, True,
                             _parse_obstruction(family, q, seed, n_rows)))
    return jobs


APPROX_KS = {"smooth": (4, 8, 16), "twosheet": (4, 8)}


def approx_jobs(seed):
    jobs = []
    for profile, ks in APPROX_KS.items():
        argv = ["approx", "--profile", profile, "--k", ",".join(map(str, ks))]
        jobs.append(_cli_job(f"approx.{profile}", argv, False, _parse_approx(profile, ks)))
    return jobs


def identities_jobs(seed):
    chain, stokes = chain_suite(seed), stokes_suite(seed)
    return [
        Job("identities.chain", chain, True, _chain_execute(chain), _chain_check,
            root="identities.chain"),
        Job("identities.stokes", stokes, True, _stokes_execute(stokes), _stokes_check,
            root="identities.stokes"),
        Job("identities.coarea", COAREA_CURRENTS, False, _coarea_execute(COAREA_CURRENTS),
            _coarea_check, root="identities.coarea"),
    ]


@dataclass
class Workload:
    jobs: Callable  # seed -> list of Job
    expects: tuple  # wrapped functions that must record calls in a traced pass


WORKLOADS = {
    "envelope": Workload(envelope_jobs, (
        "cli.main", "construction.build", "construction.verification_report",
        "construction.certificate", "exterior.lambda_m_batch", "energy.psi_batch",
        "energy.envelope_upper", "energy.envelope_lower_at_zero", "energy.envelope_bracket",
        "currents.from_nodal_sheets",
    )),
    "obstruction": Workload(obstruction_jobs, (
        "cli.main", "construction.make_mu0", "exterior.classify_bivector",
        "multipoint.g_metric", "gmeasures.mass_by_class", "gmeasures.transport_distance",
        "gmeasures.obstruction_report", "currents.from_nodal_sheets",
        "currents.is_zero_boundary", "currents.triangulate", "currents.gaussian_image",
        "currents.boundary",
    )),
    "approx": Workload(approx_jobs, (
        "cli.main", "energy.psi_batch", "exterior.lambda_m_batch", "multipoint.g_metric",
        "approx.cubic_subdivision", "approx.energy_of_map", "approx.energy_of_hybrid",
        "approx.measured_lipschitz", "approx.piecewise_affine_sequence",
    )),
    "identities": Workload(identities_jobs, (
        "construction.build", "exterior.classify_batch", "currents.from_nodal_sheets",
        "currents.triangulate", "currents.gaussian_image", "currents.partition",
        "currents.boundary", "currents.slice_mass", "currents.mass_in_ball",
        "currents.chain_report",
    )),
}
