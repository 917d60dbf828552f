"""Spans recorded from outside the program, around calls into anisoq modules.

Tracing wraps public functions at run time: the defining module or class is
patched, and so is every `from ... import` binding of the same function
object inside the `anisoq` package, so calls through either name are seen.
Nothing under `src/` changes.  Spans are kept in memory as
[name, parent id, start, end, counters] and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Work counters computed from a wrapped call's arguments and result.  Each is
# evaluated after the call, with tracing suspended, inside a bookkeeping span
# that no module owns, so its cost never lands in a module's self time.


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _gain_over_affine(args, kwargs, result):
    from anisoq.energy import affine_competitor_bound

    target, cfg = args[0], args[1]
    return {"gain_over_affine": affine_competitor_bound(target, cfg) - result[0]}


def _lp_size(args, kwargs, result):
    na = args[0].merged().n_atoms
    nb = args[1].merged().n_atoms
    # dense equality matrix of the transport LP: (na + nb) rows x na*nb float64
    return {"lp_vars": na * nb, "lp_dense_mb": (na + nb) * na * nb * 8 / 2**20}


def _nodal_triangles(args, kwargs, result):
    mesh, nodal_list = args[1], args[2]  # args[0] is the class
    return {"triangles": 2 * mesh.n * mesh.n * len(nodal_list)}


def _slice_evals(args, kwargs, result):
    return {"tri_evals": args[0].n_triangles}


def _subdivision(args, kwargs, result):
    attempts = result.diagnostics.get("attempts", [])
    return {
        "attempts": len(attempts),
        "kept": sum(a["kept"] for a in attempts),
        "tried": sum(a["kept"] + a["dropped"] for a in attempts),
    }


# (module, attribute path, counter).  The span name is "<module>.<function>".
WRAPPED = [
    ("cli", "main", None),
    ("construction", "build", None),
    ("construction", "make_mu0", None),
    ("construction", "verification_report", None),
    ("construction", "certificate", None),
    ("exterior", "lambda_m_batch", _rows),
    ("exterior", "classify_bivector", None),
    ("exterior", "classify_batch", _rows),
    ("multipoint", "g_metric", None),
    ("gmeasures", "GrassmannMeasure.mass_by_class", None),
    ("gmeasures", "transport_distance", _lp_size),
    ("gmeasures", "obstruction_report", None),
    ("currents", "FunctionalQGraph.from_nodal_sheets", _nodal_triangles),
    ("currents", "FunctionalQGraph.is_zero_boundary", None),
    ("currents", "triangulate", None),
    ("currents", "TriangulatedCurrent.gaussian_image", None),
    ("currents", "TriangulatedCurrent.partition", None),
    ("currents", "TriangulatedCurrent.boundary", None),
    ("currents", "TriangulatedCurrent.slice_mass", _slice_evals),
    ("currents", "TriangulatedCurrent.mass_in_ball", None),
    ("currents", "chain_report", None),
    ("energy", "psi_batch", _rows),
    ("energy", "envelope_upper", _gain_over_affine),
    ("energy", "envelope_lower_at_zero", None),
    ("energy", "envelope_bracket", None),
    ("approx", "cubic_subdivision", _subdivision),
    ("approx", "energy_of_map", None),
    ("approx", "energy_of_hybrid", None),
    ("approx", "HybridQMap.measured_lipschitz", None),
    ("approx", "piecewise_affine_sequence", None),
]

MODULES = ["cli", "construction", "exterior", "multipoint", "gmeasures", "currents",
           "energy", "approx"]


def span_name(module, path):
    return f"{module}.{path.rsplit('.', 1)[-1]}"


WRAPPED_NAMES = [span_name(m, p) for m, p, _c in WRAPPED]

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder; `install` patches anisoq, `uninstall` restores it."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, counters or None]
        self._stack = []
        self._suspended = False
        self._patches = []  # (owner, attribute, original raw value)
        self.sites = defaultdict(list)  # span name -> patched "owner.attr" sites
        self.missing = []  # wrapped names absent from the program

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span that no wrapped function opens."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                book = tracer._open(BOOKKEEPING)
                tracer._suspended = True
                try:
                    rec[4] = counter(args, kwargs, result)
                finally:
                    tracer._suspended = False
                    tracer._close(book)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = {m: importlib.import_module(f"anisoq.{m}") for m in MODULES}
        for module, path, counter in WRAPPED:
            name = span_name(module, path)
            owner = pkg[module]
            *cls_path, attr = path.split(".")
            try:
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
                self.sites[name].append(f"anisoq.{module}.{path}")
                continue
            wrapped = self._wrap(raw, name, counter)
            self._set(owner, attr, wrapped)
            self.sites[name].append(f"anisoq.{module}.{path}")
            if cls_path:
                continue
            # every `from ... import` binding of the same function object
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name.startswith("anisoq.") and mod is not pkg[module]:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._set(mod, key, wrapped)
                            self.sites[name].append(f"{mod_name}.{key}")

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


# -- analysis ----------------------------------------------------------------------


def self_times(spans):
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _n, parent, start, end, _c in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_n, _p, start, end, _c) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Calls, self time and summed counters per span name, plus run totals.

    Returns (per_name, totals) with per_name[name] = {"calls", "self_s",
    <counter>: sum, <counter>_max: largest value} and totals = {"root_s",
    "unwrapped_s", "<module>.self_s"}.
    Self time of spans that no module owns (the benchmark's own root spans
    and counter bookkeeping) is reported as unwrapped.
    """
    selfs = self_times(spans)
    per_name = defaultdict(lambda: defaultdict(float))
    totals = {f"{m}.self_s": 0.0 for m in MODULES}
    totals["root_s"] = 0.0
    totals["unwrapped_s"] = 0.0
    wrapped = set(WRAPPED_NAMES)
    for (name, parent, start, end, counters), st in zip(spans, selfs):
        if parent < 0:
            totals["root_s"] += end - start
        if name in wrapped:
            entry = per_name[name]
            entry["calls"] += 1
            entry["self_s"] += st
            for key, val in (counters or {}).items():
                entry[key] += val
                entry[f"{key}_max"] = max(entry[f"{key}_max"], val)
            totals[f"{name.split('.', 1)[0]}.self_s"] += st
        else:
            totals["unwrapped_s"] += st
    return per_name, totals


def rollup_gap(totals):
    """Module roll-ups plus unwrapped time minus the root spans (0 up to rounding)."""
    parts = sum(totals[f"{m}.self_s"] for m in MODULES) + totals["unwrapped_s"]
    return parts - totals["root_s"]
