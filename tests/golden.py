"""Golden CLI reports: run one case, and check or extend data/cli_golden.json.

Each case holds a command line, its exit code and the stdout it printed, with
the timestamp and the library version blanked.  Run from the repository root:

    PYTHONPATH=src python tests/golden.py                      # re-check every case
    PYTHONPATH=src python tests/golden.py --add NAME 'ARGV'   # append a case
    PYTHONPATH=src python tests/golden.py --replace NAME ...  # rerun named cases

The file is written only when every stored case that is not named still gives
the same exit code and byte-identical stdout; otherwise each changed case's
differing lines, stored and new, are printed to stderr.  Exit 0 on success,
1 when a stored case changed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import re
import sys
from pathlib import Path

from cuederiv.cli import main

PATH = Path(__file__).parent / "data" / "cli_golden.json"
VOLATILE = re.compile(r'^(  "(?:library_version|timestamp)": )".*"', re.M)


def load() -> list[dict]:
    return json.loads(PATH.read_text())


def run_case(argv: str) -> tuple[int, str]:
    """(exit code, blanked stdout) of `cuederiv ARGV`, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return code, VOLATILE.sub(r'\1""', out.getvalue())


def _dump(cases: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n"


def _diff(case: dict, code: int, stdout: str) -> str:
    """The lines of a stored case that differ from a new run: exit code and stdout."""
    lines = [f"--- {case['name']}: exit {case['exit']} -> {code}"] if code != case["exit"] else []
    lines += [line for line in difflib.unified_diff(
        case["stdout"].splitlines(), stdout.splitlines(),
        f"{case['name']} (stored)", f"{case['name']} (new)", n=0, lineterm="")]
    return "\n".join(lines)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check or extend the golden CLI cases.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--add", nargs=2, metavar=("NAME", "ARGV"), help="append a case")
    group.add_argument("--replace", nargs="+", default=[], metavar="NAME",
                       help="rerun the named cases and store them")
    args = parser.parse_args(argv)
    cases = load()
    names = [case["name"] for case in cases]
    if args.add and args.add[0] in names:
        parser.error(f"case {args.add[0]!r} exists; use --replace")
    unknown = [name for name in args.replace if name not in names]
    if unknown:
        parser.error(f"no case named {', '.join(map(repr, unknown))}")
    changed = []
    for case in cases:
        if case["name"] not in args.replace:
            result = run_case(case["argv"])
            if result != (case["exit"], case["stdout"]):
                changed.append(case["name"])
                print(_diff(case, *result), file=sys.stderr)
    if changed:
        print(f"{len(changed)} case(s) changed, nothing written: {', '.join(changed)}",
              file=sys.stderr)
        return 1
    if args.add:
        name, command = args.add
        code, stdout = run_case(command)
        cases.append({"name": name, "argv": command, "exit": code, "stdout": stdout})
    elif args.replace:
        for case in cases:
            if case["name"] in args.replace:
                case["exit"], case["stdout"] = run_case(case["argv"])
    else:
        print(f"all {len(cases)} cases unchanged")
        return 0
    PATH.write_text(_dump(cases))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
