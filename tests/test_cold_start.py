"""In a fresh interpreter the package and its CLI load numpy only where it is used.

numpy builds the search symmetry tables and the dense bridge (to_dense,
from_dense); every other command runs on Python integers.  Each check runs
in its own interpreter, as the CLI does, and asserts on sys.modules, exit
codes and outputs, never on timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import polyconcept
from polyconcept.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(Path(polyconcept.__file__).parent / "fixtures" / "fig1.nctx")
FIG4 = str(Path(polyconcept.__file__).parent / "fixtures" / "fig4.nctx")

NUMPY_FREE = [
    ["count", FIG1],
    ["count", FIG4],
    ["enum", FIG1, "--format", "json"],
    ["flatten", FIG1, "--left", "1"],
    ["flatten", FIG1, "--left", "2"],
    ["slice", FIG1, "--dim", "3", "--keep", "a"],
    ["classify", FIG1, "--impl", "(1,a) -> (2,a)"],
    ["gen", "fixture", "fig1"],
]

SEARCH = ["search", "-n", "2", "-s", "3", "--show-witnesses"]


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def expected(capsys, commands) -> str:
    for argv in commands:
        assert main(argv) == 0, argv
    return capsys.readouterr().out


def test_commands_without_numpy(capsys):
    done = fresh(
        "import ast, sys\n"
        "import polyconcept, polyconcept.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for argv in ast.literal_eval(sys.argv[1]):\n"
        "    assert polyconcept.cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n",
        repr(NUMPY_FREE),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected(capsys, NUMPY_FREE)


def test_search_loads_numpy_when_it_runs(capsys):
    done = fresh(
        "import ast, sys\n"
        "from polyconcept.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "assert main(ast.literal_eval(sys.argv[1])) == 0\n"
        "assert 'numpy' in sys.modules\n",
        repr(SEARCH),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected(capsys, [SEARCH])


def test_dense_round_trip_loads_numpy_when_it_runs():
    done = fresh(
        "import sys\n"
        "from polyconcept import fixture, from_dense, to_dense\n"
        "ctx = fixture('fig1')\n"
        "assert 'numpy' not in sys.modules\n"
        "arr = to_dense(ctx)\n"
        "assert 'numpy' in sys.modules\n"
        "assert arr.shape == ctx.sizes and int(arr.sum()) == len(ctx.relation)\n"
        "assert from_dense(arr, ctx.dims) == ctx\n"
    )
    assert done.returncode == 0, done.stderr
