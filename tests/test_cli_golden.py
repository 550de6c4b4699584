"""Golden reports: the full stdout of fast deterministic CLI commands.

Reports from `exact`, `asympt`, `zeta` and the deterministic `compare` routes
must stay byte-identical apart from the timestamp and the library version,
which are blanked.  Each case in data/cli_golden.json holds the command line,
its exit code and the stdout it printed; tests/golden.py runs the cases and
adds or regenerates them.
"""

import pytest

from golden import load, run_case

CASES = load()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_stdout_is_unchanged(case):
    assert run_case(case["argv"]) == (case["exit"], case["stdout"])
