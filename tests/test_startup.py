"""Fresh interpreters: numpy loads on first use, so commands that do no array
work start without it, and Monte Carlo workers started in a process that has
not yet loaded numpy draw the same values as one thread."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cuederiv.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_LOADED = 'any(name in sys.modules for name in ("numpy._core", "numpy.core"))'
# Runs the CLI on its arguments, then writes whether numpy's core was loaded
# as the last line of stderr and exits with the CLI's code.
_CLI = f"""\
import sys
from cuederiv.cli import main
code = main(sys.argv[1:])
print({_LOADED}, file=sys.stderr)
sys.exit(code)
"""


def fresh(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def fresh_cli(*argv):
    """(exit code, stdout, whether numpy loaded) of one command in a new process."""
    child = fresh("-c", _CLI, *argv)
    *_, loaded = child.stderr.splitlines()
    return child.returncode, child.stdout, loaded == "True"


def in_process(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def blank(out):
    return _TIMESTAMP.sub('"timestamp": ""', out)


def test_import_leaves_numpy_unloaded():
    child = fresh("-c", f"import sys, cuederiv; print({_LOADED})")
    assert (child.returncode, child.stdout) == (0, "False\n")


@pytest.mark.parametrize("argv", [
    ("asympt", "--regime", "global", "--s", "1.5", "--r", "0.5"),
    ("asympt", "--regime", "joint", "--s", "1", "--h", "1", "--z1", "0.3", "--z2", "0.5j"),
    ("asympt", "--regime", "zero-density", "--r", "0.5"),
    ("asympt", "--regime", "meso", "--s", "2", "--alpha", "0.5", "--N", "10000"),
    ("exact", "--N", "6", "--s", "2", "--u", "1/2"),
], ids=["global", "joint", "zero-density", "meso", "exact"])
def test_command_without_array_work_leaves_numpy_unloaded(capsys, argv):
    code, out, loaded = fresh_cli(*argv)
    assert (code, loaded) == (0, False)
    assert blank(out) == blank(in_process(capsys, *argv)[1])


@pytest.mark.parametrize("argv", [
    ("mc", "--N", "6", "--s", "1", "--z", "0.3", "--samples", "200000", "--seed", "1"),
    ("zeros", "--N", "50", "--radii", "0.3,0.7", "--samples", "4000", "--seed", "1"),
], ids=["mc", "zeros"])
def test_threads_as_first_numpy_use_match_one_thread(capsys, argv):
    # Several chunks each, so two workers start before numpy is loaded.
    code, out, loaded = fresh_cli(*argv, "--threads", "2")
    assert (code, loaded) == (0, True)
    one_code, one_out = in_process(capsys, *argv, "--threads", "1")
    assert one_code == 0
    assert json.loads(out)["results"] == json.loads(one_out)["results"]
