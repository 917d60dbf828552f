"""Every function of the library runs in some command or benchmark job.

tests/test_library_surface.py matches names bare, so a method shares its
reach with every same-named definition or use elsewhere: a dead
`values_at` hides behind a live one.  This test looks at what runs instead.
It runs every job of every benchmark workload (perfbench/workloads.py) at
seed 0, plus one command line that argparse rejects, under sys.setprofile,
and collects the code objects entered.  Every function or method defined
in the imported anisoq package's modules, nested ones included, must be
entered or be listed below with the reason it stays.  A listed name that
runs after all must leave the list.
"""

import ast
import sys
from pathlib import Path

import anisoq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ALLOWED_UNREACHED = {
    "gmeasures._transport_lp":
        "the HiGHS fallback when the sink-cycle certificate fails; tests force it",
    "currents.TriangulatedCurrent.concatenated": "targets of several parts concatenate currents",
    "currents.TriangulatedCurrent.from_json_obj":
        "tests re-read the competitor files that envelope writes",
    "currents.TriangulatedCurrent.mass": "the mass identities of the current engine read it",
    "energy.affine_competitor_bound": "the benchmark's trace counter for the envelope gain",
}


def _functions(path, module):
    """{(first line, name): qualified name} of every function def in one module,
    nested ones included; the first line is the first decorator's, as in
    co_firstlineno."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(first, node.name)] = f"{prefix}.{node.name}"
                visit(node.body, f"{prefix}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}.{node.name}")
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                visit([n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)],
                      prefix)

    visit(ast.parse(path.read_text()).body, module)
    return out


def _entered_codes(run):
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return codes


def test_every_library_function_is_entered_or_allowlisted(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        import workloads
        from anisoq import cli

        jobs = [job for wl in workloads.WORKLOADS.values() for job in wl.jobs(0)]

        def run():
            for i, job in enumerate(jobs):
                out_dir = tmp_path / f"job{i}"
                out_dir.mkdir()
                raw = job.execute(str(out_dir))
                assert job.check(raw, str(out_dir))[1] == [], job.name
            usage = ["--out", str(tmp_path), "envelope", "--eps", "0.1", "--q", "2",
                     "--target", "nowhere"]
            assert cli.main(usage) == cli.EXIT_USAGE

        codes = _entered_codes(run)
    finally:
        for name in ("workloads",):
            if name not in loaded:
                sys.modules.pop(name, None)

    src = Path(anisoq.__file__).resolve().parent
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in codes}
    unreached = set()
    for path in sorted(src.glob("*.py")):
        for (line, name), qual in _functions(path, path.stem).items():
            if (path.resolve(), line, name) not in entered:
                unreached.add(qual)
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == []
