"""Every row of tools/contract.py, run in process through ``cli.run``.

``python tools/contract.py`` runs the same rows as processes through the
installed console script, each within its time limit; here they run without
one, and without the script installed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from trigident.cli import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import contract  # noqa: E402


def label(case):
    return " ".join(f"{case.name}.rid" if word == contract.RID else word for word in case.argv)


@pytest.mark.parametrize("case", contract.CASES, ids=label)
def test_each_row_holds_in_process(case, tmp_path):
    for argv in contract.runs(case, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert contract.problems(case, code, out.getvalue().encode(), err.getvalue().encode()) == [], argv


D200_JSON = (
    b'{"verdict":"FALSIFIED","name":"d200","reduced_terms":79202,"elapsed_ms":0.32,'
    b'"witness":["3/7","-8/5","7/8","3/5"]}\n'
)


@pytest.mark.parametrize("name, argv, line, pinned, changed", [
    ("plus", contract.VERIFY, b"FALSIFIED plus witness=(3/7,-8/5,7/8,-49/15)\n", b"-49/15", b"-49/16"),
    ("d200", (*contract.VERIFY, "--format", "json"), D200_JSON, b"79202", b"79203"),
])
def test_a_pinned_line_with_one_byte_changed_fails_its_row(name, argv, line, pinned, changed):
    case = next(case for case in contract.CASES if (case.name, case.argv) == (name, argv))
    assert contract.problems(case, case.code, line, b"") == []
    found = contract.problems(case, case.code, line.replace(pinned, changed), b"")
    assert len(found) == 1 and found[0].startswith("stdout "), found
