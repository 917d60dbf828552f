"""Start-up stays free of scipy's optimisation and sparse-matrix modules,
and of the argument parser.

Every command pays for `import anisoq.cli` and the first construction
before its own work starts.  scipy.optimize and scipy.sparse are imported
inside the functions that solve with them, so they cost nothing there, and
the parser is built on the first call of cli.main, not at import.
"""

import subprocess
import sys

from tests.conftest import cli_env

SETUP = """
import sys
import anisoq.cli
from anisoq import construction
from anisoq.energy import PsiConfig
construction.build(0.1)
PsiConfig.for_eps(0.1)
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"],
                                                           ["scipy", "sparse"])))
"""


def test_setup_imports_no_scipy_solvers(tmp_path):
    res = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                         env=cli_env(tmp_path), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


OBSTRUCTION = """
import sys
from anisoq import cli
for family, q, mesh in (("random", "2", "4"), ("adversarial", "2", "3"), ("random", "8", "4")):
    code = cli.main(["--out", sys.argv[1], "obstruction", "--eps", "0.1", "--q", q,
                     "--samples", "2", "--mesh", mesh, "--family", family])
    assert code == 0, (family, q)
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"],
                                                           ["scipy", "sparse"])))
"""


def test_obstruction_imports_no_scipy_solvers(tmp_path):
    # mu0 has three atoms: every transport problem is solved without the LP,
    # and the zero-boundary check at q 8 needs no Hungarian matching
    res = subprocess.run([sys.executable, "-c", OBSTRUCTION, str(tmp_path)],
                         capture_output=True, text=True, env=cli_env(tmp_path), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


NO_PARSER = """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import anisoq.cli
from anisoq import construction
from anisoq.energy import PsiConfig
construction.build(0.1)
PsiConfig.for_eps(0.1)
print(made)
anisoq.cli.build_parser()
print(made)
"""


def test_import_builds_no_parser(tmp_path):
    res = subprocess.run([sys.executable, "-c", NO_PARSER], capture_output=True, text=True,
                         env=cli_env(tmp_path), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", str(["_Parser"] * 6)]
