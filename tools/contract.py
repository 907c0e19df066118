"""The CLI contract: each case, run as a process through the installed console script.

Run from anywhere, after ``pip install -e .``:

    python3 tools/contract.py

``CASES`` holds one row per case: the argv, the expected exit code, stdout
and stderr, the statement file's exact bytes (written to a temporary
``NAME.rid``, which ``RID`` in the argv names), the routes to run and a
wall-time limit in seconds, 10 unless the row sets a lower one.  An output
is exact bytes, or a ``re`` pattern that must match all of it where an
elapsed time or the temporary path appears.  The console script is
``main()`` with no argv, so every run parses ``sys.argv``.  A new case is
one more row.

Each run is one ``trigident`` process, found on ``PATH``, one at a time.  A
run over its limit is killed with its process group (POSIX).  Each failing
run is printed with what it gave, and the exit code is 1 if any failed.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import statements  # noqa: E402

Expected = Union[bytes, re.Pattern]

RID = "<rid>"
VERIFY = ("verify", RID)
PLAIN, NUMERIC = ((),), (("--numeric",),)
BOTH = PLAIN + NUMERIC
CONSTRAINT = b"constraint: a*d - b*c = 0; "


class Case(NamedTuple):
    name: str
    argv: tuple
    code: int
    out: Expected
    err: Expected = b""
    text: Optional[bytes] = None
    routes: tuple = PLAIN
    limit: float = 10


def proved(name: str) -> re.Pattern:
    """The line of a PROVED verdict, whose elapsed time varies."""
    return re.compile(rb"PROVED %s reduced_terms=0 elapsed=[0-9]+\.[0-9]ms\n" % re.escape(name.encode()))


def falsified_json(name: str, terms: int, witness: bytes) -> re.Pattern:
    """A FALSIFIED ``--format json`` report, whose elapsed time varies."""
    head = b'{"verdict":"FALSIFIED","name":"%s","reduced_terms":%d,"elapsed_ms":' % (name.encode(), terms)
    return re.compile(re.escape(head) + rb"[0-9]+\.[0-9]+" + re.escape(b',"witness":%s}\n' % witness))


FIRST_DRAW = b'["3/7","-8/5","7/8","3/5"]'
# The product of (a - r) over the 110 rationals n/d, 1 <= |n|, d <= 9, that every seeded draw
# takes each coordinate from, times (a - k) for k = 10..140: every draw is a root.
SAMPLED = sorted({Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 10)})
ROOTS_MORE = (
    "*".join(f"(a - {r})" if r > 0 else f"(a + {-r})" for r in SAMPLED)
    + "".join(f"*(a - {k})" for k in range(10, 141))
    + " == 0\n"
).encode()
CATALOG = b"""\
ramanujan-6-10-8: 64*D(6)*D(10) == 45*D(8)^2 assuming a*d = b*c
gen-3-7-5-six: 25*D(3)*D(7) == 21*D(5)^2 assuming a*d = b*c
gen-3-7-5-three: 25*A(3)*A(7) == 21*A(5)^2, unconditional
asym-6-8-factored: 8*(a^2+a*b+b^2)*(a^2+a*c+c^2)*D(6) == 3*a^2*D(8) assuming a*d = b*c
asym-6-8-r2: 4*A(2)*D(6) == 3*D(8) assuming a*d = b*c
"""
FIVE = (
    b'[{"m":5,"n":9,"p":7,"harmonic":5,"P":36,"Q":49},{"m":5,"n":13,"p":9,"harmonic":5,"P":715,"Q":1296},'
    b'{"m":7,"n":11,"p":9,"harmonic":5,"P":385,"Q":432},{"m":9,"n":13,"p":11,"harmonic":5,"P":52,"Q":55},'
    b'{"m":10,"n":14,"p":12,"harmonic":10,"P":91,"Q":144},{"m":10,"n":18,"p":14,"harmonic":10,"P":3060,"Q":8281},'
    b'{"m":12,"n":16,"p":14,"harmonic":10,"P":960,"Q":1183},{"m":14,"n":18,"p":16,"harmonic":10,"P":1989,"Q":2240}]\n'
)

CASES = (
    Case("catalog", ("catalog",), 0, CATALOG),
    # Symbolic verify on the power-sum route (brackets and numbers only), and --numeric.
    Case("ramanujan-6-10-8", ("verify", "ramanujan-6-10-8"), 0, proved("ramanujan-6-10-8"), routes=BOTH),
    # On the grid certificate: a statement with a variable.
    Case("asym-6-8-factored", ("verify", "asym-6-8-factored"), 0, proved("asym-6-8-factored")),
    # 83,328 grid points, over the 10,000 budget, so it is expanded.
    Case("over", VERIFY, 0, proved("over"), text=b"(7*a - 3)*(b + c + d)^60 == (7*a - 3)*(b + c + d)^60\n"),
    # Expanded as well, and limited to pin the expansion route's speed: a certificate the
    # variable puts over the budget, and a power of four terms built by repeated squaring.
    Case("expand", VERIFY, 0, proved("expand"), text=b"A(200)*A(2) == A(2)*A(200) + a - a\n"),
    Case("square", VERIFY, 0, proved("square"), text=b"(a+b+c+d)^40 == (a+b+c+d)^40 + a - a\n"),
    # The bound is far past the last power that can qualify.
    Case("five", ("discover", "-N", "5", "--max-n", "1000000", "--emit", "json"), 0, FIVE),
    # A power over the degree budget, with the stderr that tests/test_cli.py pins.
    Case("huge", VERIFY, 2, b"", b"trigident: huge: degree 1000000000000 is over the budget of 10000\n",
         text=b"a^1000000000000 == 0\n"),
    Case("high", VERIFY, 0, proved("high"), text=b"A(2000) == A(2000)\n"),
    # Constrained, with a variable: false on the grid, and falsified at the first seeded draw on
    # both routes.  A FALSIFIED line has no elapsed time, so its bytes are pinned.
    Case("plus", VERIFY, 1, b"FALSIFIED plus witness=(3/7,-8/5,7/8,-49/15)\n",
         text=CONSTRAINT + b"64*D(6)*D(10) == 45*D(8)^2 + a^16\n", routes=BOTH),
    # A certificate exactly at the 10,000-point budget.
    Case("budget", VERIFY, 0, proved("budget"), text=CONSTRAINT + b"b^99*c^99 == b^99*c^99\n", routes=NUMERIC),
    # Brackets and numbers alone: the power sums, held to the budget by their count in the
    # triples' invariants, prove D(100) at 595 and D(150)*D(3) at 1,378, over the budget of the
    # (a, b, c, d) grid, and refuse D(210)*D(210) at 10,011.
    Case("d100", VERIFY, 0, proved("d100"), text=CONSTRAINT + b"D(100) == D(100)\n", routes=NUMERIC),
    Case("d150", VERIFY, 0, proved("d150"), text=CONSTRAINT + b"D(150)*D(3) == D(3)*D(150)\n", routes=NUMERIC),
    Case("d210", VERIFY, 2, b"",
         b"trigident: d210: deciding it exactly needs at least 10011 integer points, over the budget of 10000,"
         b" and all 100 seeded draws agree; verify it symbolically instead\n",
         text=CONSTRAINT + b"D(210)*D(210) == D(210)^2\n", routes=NUMERIC),
    # Settled by the first seeded draw, before anything is expanded.
    Case("d200", VERIFY, 1, b"FALSIFIED d200 witness=(3/7,-8/5,7/8,3/5)\n", text=b"D(200) == 0\n"),
    # The JSON report expands the difference to count its 79,202 terms; powers of at most three
    # terms are written out by the multinomial theorem.
    Case("d200", (*VERIFY, "--format", "json"), 1, falsified_json("d200", 79202, FIRST_DRAW),
         text=b"D(200) == 0\n"),
    # The degree pass prunes what a zero factor hides before any route runs, where building the
    # hidden power takes 44 s or more; the false one counts the one term of its pruned difference.
    Case("hidden", VERIFY, 0, proved("hidden"), text=b"0*(a+b+c+d)^80 == 0\n"),
    Case("hidden-false", (*VERIFY, "--format", "json"), 1, falsified_json("hidden-false", 1, FIRST_DRAW),
         text=b"0*(a+b+c+d)^80 + a == 0\n"),
    # More relations than the budget: refused before any is built.
    Case("wide", ("discover", "-N", "1000", "--max-n", "1000000000000", "--emit", "json"), 2, b"",
         b"trigident: the query has 62250 relations, over the budget of 10000\n"),
    # Parsing and evaluation use explicit stacks: a 5,000-term flat sum and a bracket under 3,000
    # nested parentheses are proved, and 3,000 unclosed ones refused at the error's position.
    Case("flat", VERIFY, 0, proved("flat"), text=b" + ".join([b"a"] * 5000) + b" == 5000*a\n", routes=BOTH),
    Case("deep", VERIFY, 0, proved("deep"),
         text=CONSTRAINT + b"(" * 3000 + b"D(6)" + b"*1 + 0)^1" * 3000 + b" == D(6)\n", routes=BOTH),
    Case("unclosed", VERIFY, 2, b"", re.compile(rb"trigident: .*unclosed\.rid: 1:3003: expected '\)', got '=='\n"),
         text=b"(" * 3000 + b"a == a\n"),
    # Only a newline ends a line: CRLF line ends and comment lines, and an error on line 3.
    Case("crlf", VERIFY, 0, proved("crlf"), routes=BOTH,
         text=b"# Ramanujan, with CRLF line ends\r\nconstraint: a*d - b*c = 0;\r\n# the conclusion\r\n"
              b"64*D(6)*D(10) == 45*D(8)^2\r\n"),
    Case("line3", VERIFY, 2, b"", re.compile(rb"trigident: .*line3\.rid: 3:5: expected end of input, got 'c'\n"),
         text=b"a == # x\n# y\n  b c\n"),
    # A file is parsed exactly as read: a lone carriage return is whitespace, not a line end.
    Case("cr", VERIFY, 2, b"", re.compile(rb"trigident: .*cr\.rid: 1:9: expected end of input, got 'c'\n"),
         text=b"a ==\r b c\n", routes=BOTH),
    # A file that is not UTF-8 is named, as every other unreadable file is.
    Case("undecodable", VERIFY, 2, b"",
         re.compile(rb"trigident: .*undecodable\.rid: 'utf-8' codec can't decode byte 0xff in position 0:"
                    rb" invalid start byte\n"),
         text=b"\xff\xfe == 0\n"),
    # The subcommand's own parser reads sys.argv: the listing is the reference that
    # bench/selfcheck.py checks, and a word left over gets the top-level parser's error.
    Case("grid", ("discover", "-N", "3", "--max-n", "11", "--emit", "json"), 0,
         statements.reference_json(3, 11, "diff").encode()),
    Case("extra", ("discover", "-N", "3", "--max-n", "11", "extra"), 2, b"",
         re.compile(rb"usage: trigident .*\ntrigident: error: unrecognized arguments: extra\n", re.S)),
    # Ramanujan's relation and its (3, 7, 5) sibling, emitted in the statement language.
    Case("discover-dsl", ("discover", "-N", "3", "--max-n", "11", "--emit", "dsl"), 0,
         b"constraint: a*d - b*c = 0; 25*D(3)*D(7) == 21*D(5)^2\n"
         b"constraint: a*d - b*c = 0; 64*D(6)*D(10) == 45*D(8)^2\n"),
    # f_6 of three shifted cosines in each format, and the polar form of a zero-sum triple.
    Case("linearize", ("linearize", "-N", "3", "-n", "6"), 0, "f_6 = 15/16 + 3/32 cos(6θ)\n".encode()),
    Case("linearize-json", ("linearize", "-N", "3", "-n", "6", "--format", "json"), 0,
         b'{"N":3,"n":6,"terms":[{"harmonic":0,"coeff":"15/16"},{"harmonic":6,"coeff":"3/32"}]}\n'),
    Case("linearize-latex", ("linearize", "-N", "3", "-n", "6", "--format", "latex"), 0,
         b"f_{6}(\\theta) = \\frac{15}{16} + \\frac{3}{32}\\cos(6\\theta)\n"),
    Case("decompose", ("polar", "decompose", "2", "-1", "-1"), 0, b"rho=2 theta=0\n"),
    Case("compose", ("polar", "compose", "2", "0"), 0, b"x=2 y=-1 z=-1\n"),
    Case("nonzero-sum", ("polar", "decompose", "1", "1", "1"), 2, b"",
         b"trigident: triple does not sum to zero: ZeroSumTriple(x=1.0, y=1.0, z=1.0)\n"),
    # Sides that share a product factor F and have a variable, within the grid budget, are decided
    # as L == R or else F == 0: the rest by its power sums, with no grid point; the 3,000-factor
    # product, whose own 3,001-point grid takes about 20 s, by its rest 1 == 1; and under the
    # constraint by D(2) == 0 in the power sums, since a == b fails on the grid.
    Case("shared", VERIFY, 0, proved("shared"), text=b"(b + c)^3*(25*A(3)*A(7)) == (b + c)^3*(21*A(5)^2)\n",
         routes=BOTH),
    Case("product", VERIFY, 0, proved("product"),
         text=b" == ".join([b"*".join([b"(a+b)"] * 3000)] * 2) + b"\n", routes=BOTH),
    Case("surface", VERIFY, 0, proved("surface"), text=CONSTRAINT + b"D(2)*a == D(2)*b\n", routes=BOTH),
    # Over the budget verify draws first, and the first draw falsifies it.
    Case("draw", VERIFY, 1, b"FALSIFIED draw witness=(3/7,-8/5,7/8,3/5)\n",
         text=b"((((D(10) - 3) - (A(1) - A(207))))^35 - (((A(3))^2)^1)^1) == -3/4\n", routes=BOTH),
    # Every seeded draw agrees, so --numeric reports the first grid point where the sides differ,
    # a = 141, which lies past the grid's first block.
    Case("roots-more", VERIFY, 1, b"FALSIFIED roots-more witness=(141,0,0,0)\n", text=ROOTS_MORE, routes=NUMERIC),
    # J is every degree 0..9,999, over the point budget, and the first draw falsifies it: the
    # degree pass takes one shift-or per member of the smaller side, where pairwise sums took 4.6 s.
    Case("wide", VERIFY, 1, b"FALSIFIED wide witness=(3/7,-8/5,7/8,3/5)\n",
         text=b"(1 + a)^4999*(1 + b)^5000 + (1 + c)^4999*(1 + d)^5000 == 0\n", routes=BOTH, limit=2),
)


def runs(case: Case, directory: Path):
    """Each argv of ``case``, one per route, after writing its statement file under ``directory``."""
    path = directory / f"{case.name}.rid"
    if case.text is not None:
        path.write_bytes(case.text)
    argv = [str(path) if word == RID else word for word in case.argv]
    for route in case.routes:
        yield [*argv, *route]


def matches(expected: Expected, actual: bytes) -> bool:
    if isinstance(expected, bytes):
        return actual == expected
    return expected.fullmatch(actual) is not None


def problems(case: Case, code: int, out: bytes, err: bytes) -> list:
    """How a run's exit code and outputs differ from what ``case`` expects; empty if they agree."""
    found = [] if code == case.code else [f"exit {code}, expected {case.code}"]
    for stream, actual, expected in (("stdout", out, case.out), ("stderr", err, case.err)):
        if not matches(expected, actual):
            shown = repr(expected) if isinstance(expected, bytes) else f"a full match of {expected.pattern!r}"
            found.append(f"{stream} {actual!r}, expected {shown}")
    return found


def check(case: Case, argv: list) -> list:
    """Run ``trigident`` on ``argv`` as one process, and return its problems."""
    with subprocess.Popen(["trigident", *argv], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as process:
        try:
            out, err = process.communicate(timeout=case.limit)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return [f"killed at its limit of {case.limit} s"]
    return problems(case, process.returncode, out, err)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    total = failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            for argv in runs(case, Path(directory)):
                total += 1
                found = check(case, argv)
                if found:
                    failed += 1
                    print(f"FAIL {case.name}: trigident {' '.join(argv)}")
                    for problem in found:
                        print(f"  {problem}")
    print(f"contract: {total - failed} of {total} runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
