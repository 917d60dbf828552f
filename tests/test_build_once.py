"""Each command builds the three-atom construction once and hands it down.

The lift matrices, the w-planes of mu0 and the certificate weights all come
from one construction.build(eps); a second call for the same eps recomputes
nothing new.  gmeasures reads a Gaussian image against a mu0 it is passed,
so it needs no module of the package but exterior.
"""

import ast
from pathlib import Path

import pytest

from anisoq import cli, construction, currents, gmeasures

COMMANDS = [
    *[["envelope", "--eps", "0.1", "--q", "2", "--target", target]
      for target in ("zero", "ray1", "ray2", "ray3", "nearray3")],
    ["certificate", "--eps", "0.1", "--q", "2"],
    ["construct", "--eps", "0.1"],
    *[["obstruction", "--eps", "0.1", "--q", "2", "--samples", "2", "--mesh", "4",
       "--family", family] for family in ("random", "branched", "adversarial")],
    ["approx", "--profile", "twosheet", "--k", "4"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_one_build_per_command(argv, tmp_path, monkeypatch, capsys):
    build, calls = construction.build, []

    def counted(eps):
        calls.append(eps)
        return build(eps)

    # every binding of build in the package: the module's own and currents'
    monkeypatch.setattr(construction, "build", counted)
    monkeypatch.setattr(currents, "build", counted)
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls == [0.1]


def _package_modules(tree):
    """The modules of anisoq that a module's import statements name ("" for
    the package itself), lazy imports inside functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"anisoq.{node.module or ''}".rstrip(".") if node.level else node.module
            paths = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        yield from ((p.split(".") + [""])[1] for p in paths if p.split(".")[0] == "anisoq")


def test_gmeasures_imports_only_exterior():
    tree = ast.parse(Path(gmeasures.__file__).read_text())
    assert set(_package_modules(tree)) == {"exterior"}
