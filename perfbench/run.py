"""Run one benchmark workload of anisoq and print its metrics.

    python3 perfbench/run.py --workload envelope --seed 0 --seconds 20 --trace 0

Closed loop, one client: the workload's jobs run one after another in this
process, pass after pass, for at most about --seconds (at least MIN_PASSES
passes).
Every job's outputs are checked on every pass.

--trace 0 prints the end-to-end metrics: wall_s (mean over passes of the
summed job wall times), setup_s (median over fresh interpreters, one started
after each pass, of the time to import anisoq.cli and build the eps = 0.1
construction and PsiConfig) and peak_rss_mb (ru_maxrss of this process).
Both times are given in reference seconds: each is divided by the host's
speed factor, which a fixed probe that runs no anisoq code measures between
the jobs (see SpeedGauge).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the spans of the traced passes.  The last line of stdout is one
JSON object; a results file with the machine record, and the spans, go to
.bench_out/ in the checkout.

--write-reference (seed 0 only) stores one pass's numeric outputs as the
reference values in reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import MODULES, Tracer, rollup_gap, summarize
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 3
PROBE_REF_S = 0.035  # seconds one probe() takes on the reference host (README.md)
PROBE_SHARE = 0.25  # probe time kept at this share of the measured time
SETUP_CODE = (
    "import anisoq.cli\n"
    "from anisoq import construction\n"
    "from anisoq.energy import PsiConfig\n"
    "construction.build(0.1)\n"
    "PsiConfig.for_eps(0.1)\n"
    "print(anisoq.cli.__file__)\n"
)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of the per-layer metrics, in the order of BENCHMARK.json
PER_LAYER = [
    ("cli.self_s", "s"), ("construction.self_s", "s"), ("exterior.self_s", "s"),
    ("multipoint.self_s", "s"), ("gmeasures.self_s", "s"), ("currents.self_s", "s"),
    ("energy.self_s", "s"), ("approx.self_s", "s"),
    ("energy.envelope_upper.self_s", "s"), ("energy.psi_batch.calls", "count"),
    ("energy.envelope_upper.gain_over_affine", "energy"),
    ("energy.psi_batch.rows", "count"), ("energy.psi_batch.self_s", "s"),
    ("exterior.lambda_m_batch.self_s", "s"),
    ("exterior.classify_bivector.calls", "count"), ("exterior.classify_bivector.self_s", "s"),
    ("gmeasures.mass_by_class.self_s", "s"),
    ("exterior.classify_batch.rows", "count"), ("exterior.classify_batch.self_s", "s"),
    ("gmeasures.transport_distance.calls", "count"),
    ("gmeasures.transport_distance.self_s", "s"),
    ("gmeasures.transport_distance.lp_vars", "count"),
    ("gmeasures.transport_distance.lp_dense_mb", "MiB"),
    ("currents.from_nodal_sheets.triangles", "count"),
    ("currents.from_nodal_sheets.self_s", "s"), ("currents.triangulate.self_s", "s"),
    ("currents.is_zero_boundary.self_s", "s"), ("currents.gaussian_image.self_s", "s"),
    ("currents.slice_mass.tri_evals", "count"), ("currents.slice_mass.self_s", "s"),
    ("currents.mass_in_ball.self_s", "s"), ("currents.boundary.self_s", "s"),
    ("currents.chain_report.self_s", "s"),
    ("multipoint.g_metric.calls", "count"), ("multipoint.g_metric.self_s", "s"),
    ("approx.cubic_subdivision.attempts", "count"),
    ("approx.cubic_subdivision.keep_ratio", "ratio"),
    ("approx.cubic_subdivision.self_s", "s"), ("approx.energy_of_hybrid.self_s", "s"),
    ("approx.energy_of_map.self_s", "s"), ("approx.measured_lipschitz.self_s", "s"),
    ("cli.out_bytes", "B"), ("construction.build.calls", "count"),
    ("run.cpu_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# binding sites that tracing must patch besides the defining modules
REQUIRED_SITES = (
    "anisoq.approx.psi_batch", "anisoq.approx.g_metric", "anisoq.currents.g_metric",
    "anisoq.currents.build", "anisoq.energy.lambda_m_batch", "anisoq.cli.envelope_bracket",
    "anisoq.cli.envelope_upper", "anisoq.cli.envelope_lower_at_zero",
)


def load_program():
    """Import anisoq from the checkout's src/, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "anisoq" / "__init__.py").is_file():
        sys.exit(f"anisoq sources not found under {src}")
    sys.path.insert(0, str(src))
    import anisoq.cli

    if Path(anisoq.cli.__file__).resolve().parent != (src / "anisoq").resolve():
        sys.exit(f"anisoq imported from {anisoq.cli.__file__}, not from {src}")


# -- host speed -------------------------------------------------------------------------


def probe_inputs(n=12):
    """A fixed n x n transport LP (costs, equality matrix, right-hand side) and
    two 3 MiB work arrays."""
    cost = np.random.default_rng(5).random(n * n)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    return cost, a_eq, np.full(2 * n, 1.0 / n), np.empty(400_000), np.empty(400_000)


def probe(inputs):
    """Seconds taken by a fixed piece of work that runs no anisoq code.

    It mixes what the workloads spend their time on: interpreter dispatch,
    numpy calls on 6 x 6 arrays, a small HiGHS linear program, and passes
    over 3 MiB arrays.
    """
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(45_000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    a = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    for _ in range(1_100):
        a = np.sin(a) @ a * 0.1 + 0.5
        a = np.maximum(a, a.T).copy()
    cost, a_eq, b_eq, x, y = inputs
    for _ in range(2):
        linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    x[:] = np.arange(x.size)
    for _ in range(8):
        np.multiply(x, x, out=y)
        y += 1.0
        np.sqrt(y, out=x)
    return time.perf_counter() - t0


class SpeedGauge:
    """How fast the host runs right now, sampled between the measured steps.

    The speed of a shared host drifts by tens of percent over minutes, and
    the program's time drifts with it.  After each measured step (a job or a
    set-up interpreter) the gauge runs probe() until the probes have taken
    PROBE_SHARE of the measured time, so the samples spread over the run like
    the work does.  factor() is the mean probe time over PROBE_REF_S; a time
    divided by it is in reference seconds, and the probe never runs program
    code, so a change to the program moves the result in full.
    """

    def __init__(self):
        self.samples = []
        self.measured_s = 0.0
        # allocated once, so that the probe adds a constant 6 MiB to peak_rss_mb
        self.inputs = probe_inputs()

    def account(self, seconds):
        self.measured_s += seconds
        while sum(self.samples) < PROBE_SHARE * self.measured_s:
            self.samples.append(probe(self.inputs))

    def factor(self):
        return statistics.fmean(self.samples) / PROBE_REF_S


# -- running jobs -----------------------------------------------------------------------


def reference_problems(job, values, seed, reference):
    """Mismatches against the stored reference (seeded jobs: DEFAULT_SEED only)."""
    if job.seeded and seed != DEFAULT_SEED:
        return []
    ref = reference.get(job.name)
    if ref is None:
        return [f"{job.name}: no reference values"] if values else []
    problems = [f"{job.name}.{key}: missing output" for key in ref if key not in values]
    for key, val in values.items():
        if key not in ref:
            problems.append(f"{job.name}.{key}: no reference value")
        elif not abs(val - ref[key]) <= job.rtol * max(1.0, abs(ref[key])):
            problems.append(f"{job.name}.{key}: {val!r} differs from reference {ref[key]!r}")
    return problems


def run_job(job, seed, reference, tracer=None):
    """Execute and check one job; never raises for a failure of the program."""
    OUT_DIR.mkdir(exist_ok=True)
    rec = {"job": job.name, "problems": []}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is not None and job.root is not None:
                with tracer.span(job.root):
                    raw = job.execute(out_dir)
            else:
                raw = job.execute(out_dir)
        except Exception as exc:  # a raising job is a failed job; the run goes on
            raw = None
            rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        values = {}
        if raw is not None:
            try:
                values, problems = job.check(raw, out_dir)
                rec["problems"] += problems
            except Exception as exc:  # unreadable or missing output
                rec["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        rec["out_bytes"] = sum(f.stat().st_size for f in Path(out_dir).rglob("*")
                               if f.is_file())
    if not rec["problems"]:
        rec["problems"] = reference_problems(job, values, seed, reference)
    rec["values"] = values
    rec["failed"] = bool(rec["problems"])
    return rec


def run_pass(jobs, seed, reference, tracer=None, gauge=None):
    recs = []
    for job in jobs:
        recs.append(run_job(job, seed, reference, tracer))
        if gauge is not None:
            gauge.account(recs[-1]["wall_s"])
    return {
        "wall_s": sum(r["wall_s"] for r in recs),
        "cpu_s": sum(r["cpu_s"] for r in recs),
        "jobs": recs,
    }


def measure_setup():
    """Seconds from starting a fresh interpreter to a ready anisoq in it."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if res.returncode != 0 or not res.stdout.strip().startswith(src):
        raise RuntimeError(f"set-up interpreter failed: {res.stderr.strip()[-300:]}")
    return elapsed


# -- traced passes ---------------------------------------------------------------------


def layer_metrics(trace_spans, pass_rec):
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    per_name, totals = summarize(trace_spans)

    def get(name, key):
        return float(per_name.get(name, {}).get(key, 0.0))

    m = {f"{mod}.self_s": totals[f"{mod}.self_s"] for mod in MODULES}
    for name, _unit in PER_LAYER:
        if name.count(".") == 2:  # <module>.<function>.<calls, self_s or counter>
            fn, key = name.rsplit(".", 1)
            m[name] = get(fn, key)
    sub = "approx.cubic_subdivision"
    tried = get(sub, "tried")
    m[f"{sub}.keep_ratio"] = get(sub, "kept") / tried if tried else 0.0
    m["gmeasures.transport_distance.lp_dense_mb"] = get(
        "gmeasures.transport_distance", "lp_dense_mb_max")
    m["cli.out_bytes"] = float(sum(r["out_bytes"] for r in pass_rec["jobs"]))
    m["trace.coverage"] = totals["root_s"] / pass_rec["wall_s"]
    return m, per_name, totals


def trace_selfchecks(workload, tracers, per_pass):
    """Problems found in the traced passes; an empty list means the trace is sound."""
    problems = []
    for tracer in tracers:
        problems += [f"{name} not found in the program" for name in tracer.missing]
        sites = {s for ss in tracer.sites.values() for s in ss}
        problems += [f"binding site {s} not patched" for s in REQUIRED_SITES if s not in sites]
    for i, (_m, per_name, totals) in enumerate(per_pass):
        gap = rollup_gap(totals)
        if abs(gap) > 1e-9 * max(1.0, totals["root_s"]):
            problems.append(f"pass {i}: roll-ups + unwrapped differ from root spans by {gap!r} s")
        for name in workload.expects:
            if per_name.get(name, {}).get("calls", 0) == 0:
                problems.append(f"pass {i}: {name} recorded no call")
    return sorted(set(problems))


# -- records -------------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record(seed):
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else ' ' + (kind or '')}".strip()] = size
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    load_program()
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    reference = {}
    if REFERENCE_PATH.is_file():
        reference = json.loads(REFERENCE_PATH.read_text()).get(args.workload, {})

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            p.error(f"reference values are recorded at seed {DEFAULT_SEED}")
        rec = run_pass(jobs, args.seed, {})
        bad = [r for r in rec["jobs"] if r["failed"] and not all(
            s.endswith("no reference values") for s in r["problems"])]
        if bad:
            sys.exit(f"not recording: {bad[0]['job']}: {bad[0]['problems'][:3]}")
        allref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
        allref[args.workload] = {r["job"]: r["values"] for r in rec["jobs"] if r["values"]}
        REFERENCE_PATH.write_text(json.dumps(allref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_PATH.name} for {args.workload}")
        return 0

    setup_times, untraced, traced, tracers, per_pass, rounds = [], [], [], [], [], []
    gauge = SpeedGauge()
    t_start = time.perf_counter()
    # start another round only if a typical round still ends within --seconds
    while (len(untraced) < MIN_PASSES
           or time.perf_counter() - t_start + statistics.median(rounds) <= args.seconds):
        t_round = time.perf_counter()
        untraced.append(run_pass(jobs, args.seed, reference, gauge=gauge))
        if not args.trace:
            setup_times.append(measure_setup())
            gauge.account(setup_times[-1])
        else:
            tracer = Tracer()
            tracer.install()
            try:
                rec = run_pass(jobs, args.seed, reference, tracer)
            finally:
                tracer.uninstall()
            traced.append(rec)
            tracers.append(tracer)
            per_pass.append(layer_metrics(tracer.spans, rec))
        rounds.append(time.perf_counter() - t_round)
    while not args.trace and len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(measure_setup())
        gauge.account(setup_times[-1])

    all_passes = untraced + traced
    recs = [r for ps in all_passes for r in ps["jobs"]]
    attempted = len(recs)
    failed = sum(r["failed"] for r in recs)
    walls = [ps["wall_s"] for ps in untraced]
    speed = gauge.factor()
    if args.trace == 0:
        metrics = {
            "wall_s": statistics.fmean(walls) / speed,
            "setup_s": statistics.median(setup_times) / speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        metrics = {name: statistics.median(m[name] for m, _p, _t in per_pass)
                   for name, _u in PER_LAYER if name in per_pass[0][0]}
        metrics["run.cpu_s"] = statistics.median(ps["cpu_s"] for ps in untraced)
        metrics["trace.overhead_s"] = (statistics.median(ps["wall_s"] for ps in traced)
                                       - statistics.median(walls))
        units = dict(PER_LAYER)
        selfchecks = trace_selfchecks(workload, tracers, per_pass)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result = {
        "workload": args.workload,
        "machine": machine_record(args.seed),
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "untraced_pass_wall_s": walls,
        "setup_s_samples": setup_times,
        "speed_factor": speed,
        "probe_s_samples": gauge.samples,
        "jobs": [{k: r[k] for k in ("job", "wall_s", "cpu_s", "out_bytes", "problems")}
                 for r in untraced[0]["jobs"]],
        "failures": [{"job": r["job"], "problems": r["problems"]} for r in recs if r["failed"]],
    }
    if args.trace:
        result["traced_pass_wall_s"] = [ps["wall_s"] for ps in traced]
        result["trace_selfchecks"] = selfchecks or "pass"
        result["patched_sites"] = dict(tracers[0].sites)
        with open(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                for name, parent, start, end, counters in tracer.spans:
                    fh.write(json.dumps([i, name, parent, start, end, counters]) + "\n")
    (OUT_DIR / f"results_{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced / {len(traced)} traced")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if args.trace == 0:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"  measured wall quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
              f"{len(walls)} passes; set-up median {statistics.median(setup_times):.4f} s")
        print(f"  speed factor {speed:.4f} (mean of {len(gauge.samples)} probes / "
              f"{PROBE_REF_S} s); wall_s is the mean pass wall and setup_s the median "
              f"set-up, each divided by it")
    print(f"  fail_frac {failed / attempted:.4g} ({failed} of {attempted} jobs failed)")
    for f in result["failures"][:5]:
        print(f"  FAILED {f['job']}: {f['problems'][:2]}", file=sys.stderr)
    if args.trace and selfchecks:
        for s in selfchecks:
            print(f"  trace self-check: {s}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
