"""Command-line surface tying the toolkit together.

Commands: construct, obstruction, envelope, approx, certificate.  main()
alone decides the exit code.  A command line is parsed and then range
checked (the input stage) before a command runs or anything is written;
a command line outside the contract exits 1 with an `error:` message.
After that every failure inside a command is an exception: an output path
that cannot be written exits 1, and anything else exits 2, named on stderr
as `assertion failed: ...` (a violated invariant) or `computation failed
(Type): ...`.  A command whose stdout is closed early exits 1 without a
message.  All outputs are deterministic for a fixed seed: JSON is dumped
with sorted keys and CSV rows in a fixed order, with no timestamps.

The argument parser is built once per process, on the first main() or
build_parser() call, and holds no command functions: main() looks up the
cmd_* function of the parsed command each time it runs one.  main(argv) may
be called any number of times in one process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import construction, currents, gmeasures
from .energy import (LOWER_BOUND_RATIO_CONSTANT, PsiConfig, envelope_bracket,
                     envelope_lower_at_zero, envelope_upper)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
# the largest --q: current multiplicities are int64
Q_MAX = 2**63 - 1
# amplitudes of the branched family, one sample each
BRANCHED_AMPLITUDES = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
# polar grid of the branched family: q * n_theta * (2 n_r - 1) triangles
BRANCHED_N_R, BRANCHED_N_THETA = 16, 32
# the most triangles obstruction generates per graph (2 q mesh^2 for the
# random and adversarial families): peak RSS grows by about 0.5 KiB per
# triangle (70, 168 and 299 MiB at 65,536, 262,144 and 524,176), so about
# 1 GiB at the budget
OBSTRUCTION_MAX_TRIANGLES = 2**21


def _out_dir(args):
    d = args.out or os.environ.get("ANISOQ_OUT") or "anisoq_out"
    os.makedirs(d, exist_ok=True)
    return d


def _dump_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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
        raise AssertionError(f"failed invariants: {', '.join(failing)}")


def _graph_report(g, eps, mu0):
    """The obstruction report of a generated graph, whose boundary must be zero."""
    if not g.is_zero_boundary():
        raise AssertionError("obstruction report requires a zero-boundary graph")
    return gmeasures.obstruction_report(currents.triangulate(g).gaussian_image(), eps, mu0)


def _obstruction_rows_random(args, mu0):
    rows = []
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=args.mesh)
    for i in range(args.samples):
        seed = args.seed + i
        g = currents.random_lipschitz_graph(seed, 2.0, args.q, mesh)
        rows.append((f"random_{i}", seed, _graph_report(g, args.eps, mu0)))
    return rows


def _obstruction_rows_branched(args, mu0):
    rows = []
    loop = currents.disk_boundary_loop(32)
    for amp in BRANCHED_AMPLITUDES[:args.samples]:
        T = currents.branched_graph(args.q, amp, 1.0, n_r=BRANCHED_N_R,
                                    n_theta=BRANCHED_N_THETA)
        if not T.boundary_equals_loop(loop, args.q):
            raise AssertionError("current boundary is not q times the given loop")
        rep = gmeasures.obstruction_report(T.gaussian_image(), args.eps, mu0)
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
    """Pattern search over a coarse control field minimising the mu0 gap,
    for at most args.samples iterations (its budget)."""
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=args.mesh)
    rng = np.random.default_rng(args.seed)
    m_ctl = 3
    ctl = np.zeros((args.q, m_ctl, m_ctl, 2))
    up = _upsample_matrix(mesh.n, m_ctl)

    def upsample(c):
        vals = up @ c.reshape(args.q, m_ctl * m_ctl, 2)
        vals = vals.reshape(args.q, mesh.n + 1, mesh.n + 1, 2)
        return currents.FunctionalQGraph.from_nodal_sheets(mesh, np.ones(args.q, int), vals)

    def objective(c):
        rep = _graph_report(upsample(c), args.eps, mu0)
        return rep["w1_dist_mu0"], rep

    best_val, best_rep = objective(ctl)
    frontier = [(0, best_val)]
    step = 2.0
    it = 0
    budget = args.samples
    while it < budget and step > 1e-3:
        it += 1
        improved = False
        drawn = set()
        for _ in range(6):
            idx = tuple(rng.integers(d) for d in ctl.shape)
            if idx in drawn:
                # both signs already failed at this ctl and step
                continue
            drawn.add(idx)
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
                args.q,
                _fmt(float(args.eps)),
                _fmt(rep["mH"]),
                _fmt(rep["mV"]),
                _fmt(rep["mM"]),
                _fmt(rep["ratio"]),
                _fmt(rep["w1_dist_mu0"]),
            ]
        )
        if rep["mV"] > 0.0 and rep["ratio"] < LOWER_BOUND_RATIO_CONSTANT - 1e-8:
            failures.append(gid)
    path = os.path.join(out_dir, f"obstruction_{args.family}_q{args.q}_s{args.seed}.csv")
    _write_csv(path, header, csv_rows)
    print(f"wrote {path} ({len(csv_rows)} rows)")
    if failures:
        raise AssertionError("mixed/vertical ratio below 1/200 - 1e-8 for: "
                             + ", ".join(failures))


def cmd_envelope(args):
    out_dir = _out_dir(args)
    result, competitor = envelope_bracket(args.eps, args.q, args.target)
    result["competitor_file"] = f"competitor_{args.target}_q{args.q}.json"
    _dump_json(os.path.join(out_dir, result["competitor_file"]), competitor.to_json_obj())
    path = os.path.join(out_dir, f"envelope_{args.target}_q{args.q}.json")
    _dump_json(path, result)
    print(f"upper={result['upper']!r} lower={result['lower']!r} gap={result['gap']!r}")
    print(f"wrote {path}")


def cmd_approx(args):
    from . import approx as ap

    out_dir = _out_dir(args)
    cfg = PsiConfig.for_eps(args.eps)
    f = ap.smooth_profile() if args.profile == "smooth" else ap.twosheet_profile()
    if not f.check_increments(seed=11):
        raise AssertionError(
            f"declared Lipschitz constant {f.lipschitz!r} violated on sampled increments")
    e_ref = ap.energy_of_map(f, cfg)
    rows = []
    errs = []
    for k in args.k:
        # only the report: the previous g_k is freed before the next is built
        rep = ap.piecewise_affine_sequence(f, k, cfg, e_ref)[1]
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
            raise AssertionError(f"bad-set bound violated at k={k}")
        if rep["lipschitz"] > rep["lip_bound"]:
            raise AssertionError(f"Lipschitz bound lip <= lip_tol violated at k={k}")
        if rep["boundary_trace_error"] > 1e-9:
            raise AssertionError(f"boundary trace error above 1e-9 at k={k}")
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
        raise AssertionError("energy error not strictly decreasing over the k list")


def cmd_certificate(args):
    out_dir = _out_dir(args)
    cfg = PsiConfig.for_eps(args.eps)
    b = cfg.bundle
    uppers = [envelope_upper((args.q, X), cfg)[0] for X in b.X]
    lower, trace = envelope_lower_at_zero(b, args.q)
    cert = construction.certificate(b, uppers, lower)
    cert["chain_trace"] = trace
    path = os.path.join(out_dir, f"certificate_q{args.q}.json")
    _dump_json(path, cert)
    print(f"lambda={cert['lambda']} gap={cert['gap']!r} valid={cert['valid']}")
    print(f"wrote {path}")
    if not cert["valid"]:
        raise AssertionError("certificate invalid (see residuals and envelope values)")


class _UsageError(Exception):
    """A command line outside the contract; main() reports it with exit 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises _UsageError where argparse would exit 2."""

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _k_list(text):
    """--k: a comma-separated, strictly increasing list of integers from 2 to
    approx.K_MAX, past which the cube search would start below its floor."""
    import re

    from .approx import K_MAX

    # the grammar int() reads: its whitespace is str.isspace() less \x1c-\x1f
    item = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(_\d+)*[^\S\x1c-\x1f]*")
    if not all(item.fullmatch(s) for s in text.split(",")):
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    ks = [int(s) for s in text.split(",")]
    if min(ks) < 2:
        raise argparse.ArgumentTypeError(f"every k must be >= 2: {text!r}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise argparse.ArgumentTypeError(f"the k list must be strictly increasing: {text!r}")
    if max(ks) > K_MAX:
        raise argparse.ArgumentTypeError(
            f"every k must be <= {K_MAX}: beyond it the first cube lattice, of pitch "
            f"side/(12 k), is finer than the search allows: {text!r}")
    return ks


def _ignored_search_flags(parser):
    """--mesh, --starts and --seed of the retired envelope search: parsed and
    checked (counts >= 1) so existing command lines keep working, then unused."""
    for name in ("mesh", "starts", "seed"):
        parser.add_argument(f"--{name}", type=int, default=1,
                            help="ignored: the envelope upper bound is a closed-form minimum")


@functools.cache
def build_parser():
    """The process's one parser, built on the first call: every caller gets
    the same object and must not change it."""
    p = _Parser(
        prog="anisoq",
        description="Numerical toolkit for degenerate anisotropic Q-valued energies",
    )
    p.add_argument("--out", default=None, help="output directory (or $ANISOQ_OUT)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build and verify the three-atom construction")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--json", default=None, help="write the full report to this path")

    o = sub.add_parser("obstruction", help="partition masses and transport gaps")
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--samples", type=int, default=5)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--family", choices=["random", "branched", "adversarial"],
                   default="random")
    o.add_argument("--mesh", type=int, default=12)

    e = sub.add_parser("envelope", help="two-sided envelope bracket at a target")
    e.add_argument("--eps", type=float, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--target", choices=["zero", "ray1", "ray2", "ray3", "nearray3"],
                   required=True)
    _ignored_search_flags(e)

    a = sub.add_parser("approx", help="piecewise-affine approximation convergence")
    a.add_argument("--profile", choices=["smooth", "twosheet"], required=True)
    a.add_argument("--k", type=_k_list, default="4,8,16,32",
                   help="comma-separated, strictly increasing list of integers >= 2, none "
                        "above the largest k the cube search can start at")
    a.add_argument("--eps", type=float, default=0.1)

    ce = sub.add_parser("certificate", help="non-convexity certificate from envelopes")
    ce.add_argument("--eps", type=float, required=True)
    ce.add_argument("--q", type=int, required=True)
    _ignored_search_flags(ce)
    return p


def _check_args(args):
    """The input stage: every range check of a parsed command line, run
    before the command and before anything is written."""
    for name, least in (("q", 1), ("mesh", 1), ("samples", 1), ("starts", 1), ("seed", 0)):
        if getattr(args, name, least) < least:
            raise _UsageError(f"--{name} must be >= {least}")
    if getattr(args, "q", 1) > Q_MAX:
        raise _UsageError(f"--q must be <= {Q_MAX}")
    if args.command == "obstruction":
        if args.family == "branched":
            sizes, tris = f"--q {args.q}", args.q * BRANCHED_N_THETA * (2 * BRANCHED_N_R - 1)
        else:
            sizes, tris = f"--q {args.q} and --mesh {args.mesh}", 2 * args.q * args.mesh**2
        if tris > OBSTRUCTION_MAX_TRIANGLES:
            raise _UsageError(f"{sizes}: {tris} triangles per graph, more than the "
                              f"{OBSTRUCTION_MAX_TRIANGLES} allowed")
        n = len(BRANCHED_AMPLITUDES)
        if args.family == "branched" and args.samples > n:
            raise _UsageError(f"--samples must be <= {n} for --family branched, "
                              f"which has {n} amplitudes")
    lo, hi = construction.BUILD_EPS_MIN, construction.BUILD_EPS_MAX
    if not lo <= args.eps <= hi:
        raise _UsageError(f"eps must lie in [{lo}, {hi}]; got {args.eps}")
    if args.out == "":
        raise _UsageError("--out must not be empty")
    if getattr(args, "json", None) == "":
        raise _UsageError("--json must not be empty")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # looked up per call, so the cached parser holds no command function
    command = {"construct": cmd_construct, "obstruction": cmd_obstruction,
               "envelope": cmd_envelope, "approx": cmd_approx,
               "certificate": cmd_certificate}[args.command]
    try:
        command(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        # stdout was closed (say, by `| head -1`): what is left goes to
        # devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except Exception as exc:
        print(f"computation failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
