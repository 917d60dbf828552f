"""Every function of the library runs in some command or benchmark job.

tests/test_library_surface.py matches names bare, so a method shares its
reach with every same-named definition or use elsewhere: a dead
`values_at` hides behind a live one.  This test looks at what runs instead.
It takes the code objects entered in one pass of every benchmark workload's
jobs at seed 0 (the workload_pass fixture of conftest.py) and in one command
line that argparse rejects, both under sys.setprofile.  Every function or
method defined in the imported anisoq package's modules, nested ones
included, must be entered or be listed below with the reason it stays.  A listed name that
runs after all must leave the list.
"""

import ast
import sys
from pathlib import Path

import anisoq
from anisoq import cli

ALLOWED_UNREACHED = {
    "gmeasures._transport_lp":
        "the HiGHS fallback when the sink-cycle certificate fails; tests force it",
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


def test_every_library_function_is_entered_or_allowlisted(workload_pass, tmp_path):
    def usage():
        argv = ["--out", str(tmp_path), "envelope", "--eps", "0.1", "--q", "2",
                "--target", "nowhere"]
        assert cli.main(argv) == cli.EXIT_USAGE

    codes = workload_pass[0] | _entered_codes(usage)
    src = Path(anisoq.__file__).resolve().parent
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in codes}
    unreached = set()
    for path in sorted(src.glob("*.py")):
        for (line, name), qual in _functions(path, path.stem).items():
            if (path.resolve(), line, name) not in entered:
                unreached.add(qual)
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == []
