"""Output checks against known answers, and the error tally they feed.

A verify op passes when:

* a true statement exits 0 and prints ``PROVED <name> reduced_terms=0 ...``;
* a false statement exits 1 and prints a witness at which the benchmark's
  own evaluator finds the two sides different, and which satisfies
  a*d = b*c when the statement is constrained.

A discover op passes when it exits 0 and prints exactly the reference
bytes.  Anything on stderr fails an op.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from statements import Statement, evaluate

_RATIONAL = r"-?\d+(?:/\d+)?"
_WITNESS = re.compile(rf"FALSIFIED (\S+) witness=\(({_RATIONAL}),({_RATIONAL}),({_RATIONAL}),({_RATIONAL})\)\n")
_PROVED = re.compile(r"PROVED (\S+) reduced_terms=0 elapsed=\d+\.\dms\n")


def check_verify(statement: Statement, code: int, out: str, err: str) -> str | None:
    """None when a plain-format verify output is right, else what is wrong."""
    if err:
        return f"stderr {err!r}"
    if statement.holds:
        match = _PROVED.fullmatch(out)
        if code != 0 or not match or match.group(1) != statement.name:
            return f"expected PROVED {statement.name}, got exit {code} {out!r}"
        return None
    match = _WITNESS.fullmatch(out)
    if code != 1 or not match or match.group(1) != statement.name:
        return f"expected FALSIFIED {statement.name}, got exit {code} {out!r}"
    return check_witness(statement, match.groups()[1:])


def check_verify_json(statement: Statement, code: int, out: str, err: str) -> str | None:
    """Same as ``check_verify`` for ``--format json`` output."""
    if err:
        return f"stderr {err!r}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"not JSON: {out!r}"
    expected = ("PROVED", 0) if statement.holds else ("FALSIFIED", 1)
    if (report.get("verdict"), code) != expected or report.get("name") != statement.name:
        return f"expected {expected} for {statement.name}, got exit {code} {out!r}"
    if statement.holds:
        if report.get("reduced_terms") != 0 or report.get("witness") is not None:
            return f"PROVED with residue or witness: {out!r}"
        return None
    witness = report.get("witness")
    if not isinstance(witness, list) or len(witness) != 4:
        return f"bad witness in {out!r}"
    return check_witness(statement, witness)


def check_witness(statement: Statement, texts) -> str | None:
    try:
        point = tuple(Fraction(text) for text in texts)
    except (TypeError, ValueError, ZeroDivisionError):
        return f"unparsable witness {texts!r}"
    a, b, c, d = point
    if statement.constrained and a * d != b * c:
        return f"witness {texts!r} is off a*d = b*c"
    if evaluate(statement.lhs, point) == evaluate(statement.rhs, point):
        return f"witness {texts!r} does not falsify {statement.name}"
    return None


def check_discover(expected: str, code: int, out: str, err: str) -> str | None:
    if err:
        return f"stderr {err!r}"
    if code != 0 or out != expected:
        return f"discover output differs from reference: exit {code} {out[:200]!r}"
    return None


class Tally:
    """Operations attempted and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None, label: str) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"bench: {label}: {problem}", file=sys.stderr)
        return problem is None

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
