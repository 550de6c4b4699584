"""Golden reports: the full stdout of fast deterministic CLI commands.

Reports from `exact`, `asympt`, `zeta` and the deterministic `compare` routes
must stay byte-identical apart from the timestamp and the library version,
which are blanked here.  Each case in data/cli_golden.json holds the command
line, its exit code and the stdout it printed.
"""

import json
import re
from pathlib import Path

import pytest

from cuederiv.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
VOLATILE = re.compile(r'^(  "(?:library_version|timestamp)": )".*"', re.M)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_stdout_is_unchanged(case, capsys):
    code = main(case["argv"].split())
    assert code == case["exit"]
    assert VOLATILE.sub(r'\1""', capsys.readouterr().out) == case["stdout"]
