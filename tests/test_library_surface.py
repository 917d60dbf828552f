"""The library surface stays small: every public name is reached.

A public function, method or class of src/anisoq that no module of the
package and no benchmark script names is code that only tests reach.  Such a
name is wired into a command, moved into tests/ as an oracle, or deleted;
the few that stay are listed here with the reason they stay.  A private
function, method, class or module constant that nothing names is dead code,
and none stays.  Dunder names are not counted.

A name counts as reached when it appears, outside its own definition, as a
name or an attribute in src/anisoq/*.py or perfbench/*.py, or as a part of
a dotted string in perfbench/*.py (the benchmark's span table patches
functions by their dotted path).  Matching is by bare name, so a method
shares its reach with every other definition or use of the same name: a
dead method whose name a live one shares passes here.
tests/test_library_reach.py closes that blind spot by recording which
functions run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED_UNREACHED = {
    "currents.TriangulatedCurrent.from_json_obj":
        "tests re-read the competitor files that envelope writes",
    "currents.TriangulatedCurrent.mass": "the mass identities of the current engine read it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defs(tree, module):
    """{qualified name: (bare name, node)} of the module-level and class-level
    function and class defs and of the module-level private constants."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name):
                    out[f"{prefix}.{node.name}"] = (node.name, node)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}")
            elif prefix == module and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if (isinstance(t, ast.Name) and t.id.startswith("_")
                            and not _is_dunder(t.id)):
                        out[f"{prefix}.{t.id}"] = (t.id, node)

    visit(tree.body, module)
    return out


def _references(tree, with_strings):
    """(name, line) of every name, attribute and (optionally) dotted-string part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreached_names():
    """Qualified names of src/anisoq named nowhere outside their definition."""
    defs, refs = {}, []
    for path in sorted((ROOT / "src" / "anisoq").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += [(name, path, line) for name, line in _references(tree, False)]
        defs.update({q: (path, name, node) for q, (name, node) in _defs(tree, path.stem).items()})
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs += [(name, path, line) for name, line in _references(ast.parse(path.read_text()),
                                                                  True)]
    unreached = set()
    for qual, (path, bare, node) in defs.items():
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(name == bare and not (where == path and line in inside)
                   for name, where, line in refs):
            unreached.add(qual)
    return unreached


def _private(qual):
    return qual.rsplit(".", 1)[1].startswith("_")


def test_every_public_name_is_reached_or_allowlisted():
    assert {q for q in unreached_names() if not _private(q)} == set(ALLOWED_UNREACHED)


def test_every_private_name_is_reached():
    assert {q for q in unreached_names() if _private(q)} == set()
