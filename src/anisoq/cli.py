"""Command-line surface tying the toolkit together.

Commands: construct, obstruction, envelope, approx, certificate.  Exit code
0 means every checked assertion passed, 1 a domain or usage error (argparse's
own errors included, which would otherwise exit 2), 2 an
assertion failure or a failed computation (a RuntimeError or ArithmeticError,
such as a failed transport LP or cubic subdivision); the failure is named on
stderr.  All outputs are deterministic for a fixed seed: JSON is dumped with
sorted keys and CSV rows in a fixed order, with no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import construction, currents, gmeasures
from .energy import PsiConfig, envelope_bracket, envelope_lower_at_zero, envelope_upper
from .multipoint import MaximalDecomposition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
# amplitudes of the branched family, one sample each
BRANCHED_AMPLITUDES = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)


def _out_dir(args):
    d = args.out or os.environ.get("ANISOQ_OUT", "anisoq_out")
    os.makedirs(d, exist_ok=True)
    return d


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return x


def cmd_construct(args):
    report = construction.verification_report(args.eps)
    for ch in report["checks"]:
        status = "pass" if ch["passed"] else "FAIL"
        print(f"{status}  {ch['name']}  residual={ch['residual']:.3e}  tol={ch['tol']:.1e}")
    for note in report["notes"]:
        print(f"note: {note}")
    if args.json:
        _dump_json(args.json, report)
        print(f"wrote {args.json}")
    if not report["all_passed"]:
        failing = [ch["name"] for ch in report["checks"] if not ch["passed"]]
        print(f"failed invariants: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _obstruction_rows_random(args, mu0):
    rows = []
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=args.mesh)
    for i in range(args.samples):
        seed = args.seed + i
        g = currents.random_lipschitz_graph(seed, 2.0, args.q, mesh)
        rep = gmeasures.obstruction_report(g, args.eps, mu0=mu0)
        rows.append((f"random_{i}", seed, rep))
    return rows


def _obstruction_rows_branched(args, mu0):
    rows = []
    loop = currents.disk_boundary_loop(32)
    for amp in BRANCHED_AMPLITUDES[:args.samples]:
        T = currents.branched_graph(args.q, amp, 1.0, n_r=16, n_theta=32)
        rep = gmeasures.obstruction_report(
            T, args.eps, mu0=mu0, boundary_loop=loop, q=args.q
        )
        rows.append((f"branched_a{amp}", args.seed, rep))
    return rows


def _upsample_matrix(n, m_ctl):
    """((n+1)^2, m_ctl^2) map from an m_ctl x m_ctl control field to nodal values.

    The controls sit on the interior nodes of an (m_ctl+2)^2 grid on [0, 1]^2
    whose border is zero; the map is bilinear interpolation at the mesh
    nodes times the bump sin(pi x) sin(pi y), separable in x and y.
    """
    grid = np.linspace(0.0, 1.0, n + 1)
    ctl = np.linspace(0.0, 1.0, m_ctl + 2)[1:-1]
    hat = np.maximum(0.0, 1.0 - np.abs(grid[:, None] - ctl[None, :]) * (m_ctl + 1))
    side = np.sin(math.pi * grid)[:, None] * hat
    return np.kron(side, side)


def _obstruction_adversarial(args, mu0, out_dir):
    """Pattern search over a coarse control field minimising the mu0 gap."""
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=args.mesh)
    rng = np.random.default_rng(args.seed)
    m_ctl = 3
    ctl = np.zeros((args.q, m_ctl, m_ctl, 2))
    up = _upsample_matrix(mesh.n, m_ctl)

    def upsample(c):
        vals = up @ c.reshape(args.q, m_ctl * m_ctl, 2)
        vals = vals.reshape(args.q, mesh.n + 1, mesh.n + 1, 2)
        return currents.FunctionalQGraph.from_nodal_sheets(mesh, [(1, v) for v in vals])

    def objective(c):
        g = upsample(c)
        rep = gmeasures.obstruction_report(g, args.eps, mu0=mu0)
        return rep["w1_dist_mu0"], rep

    best_val, best_rep = objective(ctl)
    frontier = [(0, best_val)]
    step = 2.0
    it = 0
    budget = max(args.samples, 8)
    while it < budget and step > 1e-3:
        it += 1
        improved = False
        for _ in range(6):
            idx = tuple(rng.integers(d) for d in ctl.shape)
            for sgn in (1.0, -1.0):
                trial = ctl.copy()
                trial[idx] += sgn * step
                val, rep = objective(trial)
                if val < best_val - 1e-12:
                    ctl, best_val, best_rep = trial, val, rep
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
        frontier.append((it, best_val))
    _write_csv(
        os.path.join(out_dir, f"adversarial_frontier_q{args.q}_s{args.seed}.csv"),
        ["iter", "best_w1_dist_mu0"],
        [(i, _fmt(v)) for i, v in frontier],
    )
    return [("adversarial_best", args.seed, best_rep)]


def cmd_obstruction(args):
    if args.family == "branched" and args.samples > len(BRANCHED_AMPLITUDES):
        raise ValueError(f"--samples must be <= {len(BRANCHED_AMPLITUDES)} for --family "
                         f"branched, which has {len(BRANCHED_AMPLITUDES)} amplitudes")
    out_dir = _out_dir(args)
    mu0 = construction.make_mu0(args.eps)
    if args.family == "random":
        rows = _obstruction_rows_random(args, mu0)
    elif args.family == "branched":
        rows = _obstruction_rows_branched(args, mu0)
    else:
        rows = _obstruction_adversarial(args, mu0, out_dir)
    header = ["graph_id", "seed", "Q", "eps", "mH", "mV", "mM", "ratio", "w1_dist_mu0"]
    csv_rows = []
    failures = []
    for gid, seed, rep in rows:
        csv_rows.append(
            [
                gid,
                seed,
                rep["Q"],
                _fmt(float(args.eps)),
                _fmt(rep["mH"]),
                _fmt(rep["mV"]),
                _fmt(rep["mM"]),
                _fmt(rep["ratio"]),
                _fmt(rep["w1_dist_mu0"]),
            ]
        )
        if rep["mV"] > 0.0 and rep["ratio"] < 1.0 / 200.0 - 1e-8:
            failures.append(gid)
    path = os.path.join(out_dir, f"obstruction_{args.family}_q{args.q}_s{args.seed}.csv")
    _write_csv(path, header, csv_rows)
    print(f"wrote {path} ({len(csv_rows)} rows)")
    if failures:
        print(
            "mixed/vertical ratio below 1/200 - 1e-8 for: " + ", ".join(failures),
            file=sys.stderr,
        )
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_envelope(args):
    out_dir = _out_dir(args)
    br, competitor = envelope_bracket(args.eps, args.q, args.target)
    comp_name = f"competitor_{args.target}_q{args.q}.json"
    comp_path = os.path.join(out_dir, comp_name)
    _dump_json(comp_path, competitor.to_json_obj())
    result = br.to_json_obj(competitor_file=comp_name)
    path = os.path.join(out_dir, f"envelope_{args.target}_q{args.q}.json")
    _dump_json(path, result)
    print(f"upper={br.upper!r} lower={br.lower!r} gap={br.gap!r}")
    print(f"wrote {path}")
    if br.lower > br.upper + 1e-9:
        print("bracket ordering violated: lower > upper + 1e-9", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_approx(args):
    from . import approx as ap

    out_dir = _out_dir(args)
    cfg = PsiConfig.for_eps(args.eps)
    f = ap.smooth_profile() if args.profile == "smooth" else ap.twosheet_profile()
    e_ref = ap.energy_of_map(f, cfg)
    rows = []
    errs = []
    for k in args.k:
        _g, rep = ap.piecewise_affine_sequence(f, k, cfg)
        err = abs(rep["energy_psi_bar"] - e_ref)
        errs.append(err)
        rows.append(
            [
                k,
                _fmt(rep["r"]),
                _fmt(rep["covered"]),
                _fmt(rep["lipschitz"]),
                _fmt(rep["energy_psi_bar"]),
                _fmt(e_ref),
                _fmt(err),
                _fmt(rep["bad_set_full"]),
                _fmt(2.0 / k),
                _fmt(rep["bad_set_shrunk"]),
                _fmt(3.0 / k),
                _fmt(rep["lip_bound"]),
            ]
        )
        if rep["bad_set_full"] > 2.0 / k or rep["bad_set_shrunk"] > 3.0 / k:
            print(f"bad-set bound violated at k={k}", file=sys.stderr)
            return EXIT_ASSERTION
    path = os.path.join(out_dir, f"approx_{args.profile}.csv")
    _write_csv(
        path,
        ["k", "r_k", "covered", "lip", "energy_psi_bar", "energy_ref", "abs_err",
         "bad_full", "bad_full_tol", "bad_shrunk", "bad_shrunk_tol", "lip_tol"],
        rows,
    )
    print(f"wrote {path}")
    for k, rep_row in zip(args.k, rows):
        print(f"k={k}: energy={rep_row[4]} err={rep_row[6]}")
    if args.profile == "smooth" and any(
        errs[i + 1] >= errs[i] for i in range(len(errs) - 1)
    ):
        print("energy error not strictly decreasing over the k list", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_certificate(args):
    out_dir = _out_dir(args)
    b = construction.build(args.eps)
    cfg = PsiConfig.for_eps(args.eps)
    uppers = []
    for i in range(3):
        target = MaximalDecomposition.single(args.q, np.zeros(2), b.X[i])
        val, _comp, _meta = envelope_upper(target, cfg)
        uppers.append(val)
    lower, trace = envelope_lower_at_zero(args.eps, args.q)
    cert = construction.certificate(
        args.eps, args.q, {"upper_at_rays": uppers, "lower_at_zero": lower}
    )
    obj = cert.to_json_obj()
    obj["chain_trace"] = trace
    path = os.path.join(out_dir, f"certificate_q{args.q}.json")
    _dump_json(path, obj)
    print(f"lambda={cert.lam.tolist()} gap={cert.gap!r} valid={cert.valid}")
    print(f"wrote {path}")
    if not cert.valid:
        print("certificate invalid (see residuals and envelope values)", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


class _UsageError(Exception):
    """A command line that does not parse; main() reports it with exit 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises _UsageError where argparse would exit 2."""

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _k_list(text):
    """--k: a comma-separated list of integers >= 2."""
    try:
        ks = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None
    if min(ks) < 2:
        raise argparse.ArgumentTypeError(f"every k must be >= 2: {text!r}")
    return ks


def _ignored_search_flags(parser):
    """--mesh, --starts and --seed of the retired envelope search: parsed and
    checked (counts >= 1) so existing command lines keep working, then unused."""
    for name in ("mesh", "starts", "seed"):
        parser.add_argument(f"--{name}", type=int, default=1,
                            help="ignored: the envelope upper bound is a closed-form minimum")


def build_parser():
    p = _Parser(
        prog="anisoq",
        description="Numerical toolkit for degenerate anisotropic Q-valued energies",
    )
    p.add_argument("--out", default=None, help="output directory (or $ANISOQ_OUT)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build and verify the three-atom construction")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--json", default=None, help="write the full report to this path")
    c.set_defaults(fn=cmd_construct)

    o = sub.add_parser("obstruction", help="partition masses and transport gaps")
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--samples", type=int, default=5)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--family", choices=["random", "branched", "adversarial"],
                   default="random")
    o.add_argument("--mesh", type=int, default=12)
    o.set_defaults(fn=cmd_obstruction)

    e = sub.add_parser("envelope", help="two-sided envelope bracket at a target")
    e.add_argument("--eps", type=float, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--target", choices=["zero", "ray1", "ray2", "ray3"], required=True)
    _ignored_search_flags(e)
    e.set_defaults(fn=cmd_envelope)

    a = sub.add_parser("approx", help="piecewise-affine approximation convergence")
    a.add_argument("--profile", choices=["smooth", "twosheet"], required=True)
    a.add_argument("--k", type=_k_list, default="4,8,16,32",
                   help="comma-separated list of integers >= 2")
    a.add_argument("--eps", type=float, default=0.1)
    a.set_defaults(fn=cmd_approx)

    ce = sub.add_parser("certificate", help="non-convexity certificate from envelopes")
    ce.add_argument("--eps", type=float, required=True)
    ce.add_argument("--q", type=int, required=True)
    _ignored_search_flags(ce)
    ce.set_defaults(fn=cmd_certificate)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name in ("q", "mesh", "samples", "starts"):
        if getattr(args, name, 1) < 1:
            print(f"error: --{name} must be >= 1", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (RuntimeError, ArithmeticError) as exc:
        print(f"computation failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
