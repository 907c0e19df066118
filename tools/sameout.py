"""Same-output gate: the outputs of a fixed set of ``verify`` invocations, one line each.

Run from anywhere, once per tree to compare:

    python3 tools/sameout.py --out FILE

It calls ``trigident.cli.run`` in-process, with this checkout's ``src``
first on the path, on 3,916 invocations:

* the 3,560 invocations of the gate: the 5 catalog entries and the 440
  ``generate``/``true_versions`` statements of ``bench/statements.py`` for
  seeds 0-9, each symbolic and ``--numeric``, ``--seed`` 0 and 3, plain and
  ``--format json``;
* bracket, hidden-subtree, over-budget and unreadable inputs (``EXTRAS``),
  among them statements with a variable over the point budget, false
  statements that every seeded draw satisfies, so that their witness is a
  grid point, grids of exactly two and four full blocks, and sides that
  share a product factor, among them factors that the degree pass prunes,
  and factors that are equal only once pruned.

Each line of FILE is a JSON list: the argv, the exit code, stdout with the
elapsed time removed, and stderr.  Statements are written as ``.rid``
files into a temporary directory that is the working directory during
the calls, so argv and messages name them by relative paths.  Two trees
give the same outputs exactly when their files compare equal with ``cmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import statements  # noqa: E402
from trigident import cli  # noqa: E402
from trigident.identities import CATALOG  # noqa: E402

CONSTRAINT = statements.CONSTRAINT_PREFIX
ROUTES = ([], ["--numeric"])
SEEDS = ("0", "3")
FORMATS = ([], ["--format", "json"])

# name -> (statement text, routes, formats).  A JSON report counts the terms
# of a false statement's expanded difference, which for some of these would
# take minutes, and symbolic verify compares the power sums of sum20 whatever
# its count, which takes seconds.
NUMERIC, PLAIN = ROUTES[1:], FORMATS[:1]
# The product of (a - r) over the 110 rationals n/d, 1 <= |n|, d <= 9, that
# the sampler draws every coordinate from: every seeded draw is a root.
SAMPLED = sorted({Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 10)})
ROOTS = "*".join(f"(a - {r})" if r > 0 else f"(a + {-r})" for r in SAMPLED)
# 300 factors (a+b), for both sides to share.
PRODUCT = "*".join(["(a+b)"] * 300)
# A factor b, with a power the degree pass prunes, and one that differs from
# it only in that power.
HIDDEN, APART = "b + 0*(a+b+c+d)^80", "b + 0*(a+b+c+d)^79"
EXTRAS = {
    # Brackets and numbers, at and around the invariant count's budget.
    "a60-b40": ("A(60)*B(40) == B(40)*A(60)", ROUTES, FORMATS),
    "d210": (CONSTRAINT + "D(210)*D(210) == D(210)^2", ROUTES, FORMATS),
    "sum20": ("(D(2)+D(3)+D(5))^20 == (D(2)+D(3)+D(5))^20", NUMERIC, FORMATS),
    "d200": (CONSTRAINT + "D(200)*D(200) == D(200)^2", ROUTES, FORMATS),
    "d150": (CONSTRAINT + "D(150)*D(3) == D(3)*D(150)", ROUTES, FORMATS),
    "d100": (CONSTRAINT + "D(100) == D(100)", ROUTES, FORMATS),
    "a36-b36": ("A(36)*B(36) == B(36)*A(36)", ROUTES, FORMATS),
    "d2": (CONSTRAINT + "D(2) == 0", ROUTES, FORMATS),
    # False statements of brackets and numbers.
    "newton-off": ("6*A(5) == 5*A(2)*A(3) + 1", ROUTES, FORMATS),
    "d2-free": ("D(2) == 0", ROUTES, FORMATS),
    "gen-free": ("25*D(3)*D(7) == 21*D(5)^2", ROUTES, FORMATS),
    "d100-zero": (CONSTRAINT + "D(100) == 0", ROUTES, PLAIN),
    "ramanujan-plus": (CONSTRAINT + "64*D(6)*D(10) == 45*D(8)^2 + 1", ROUTES, FORMATS),
    # Far over the invariant count's budget and false at its first draw,
    # which both routes take before anything else; a JSON report expands
    # the difference, which takes minutes.
    "draw-first": ("((((D(10) - 3) - (A(1) - A(207))))^35 - (((A(3))^2)^1)^1) == -3/4", ROUTES, PLAIN),
    # Subtrees that a zero factor or a zeroth power hides.
    "hidden-brackets": ("0*(A(2)+A(3)+B(2)+B(3))^80 == 0", ROUTES, FORMATS),
    "zeroth-brackets": ("((A(6)+B(6))^1000)^0 == 1", ROUTES, FORMATS),
    "hidden-brackets-false": ("0*(A(2)+A(3)+B(2)+B(3))^80 + A(2) == 0", ROUTES, PLAIN),
    "hidden-both": (CONSTRAINT + "0*(A(2)+A(3)+B(2)+B(3))^80 + ((A(6)+B(6))^1000)^0 == 1", ROUTES, FORMATS),
    "hidden": ("0*(a+b+c+d)^80 == 0", ROUTES, FORMATS),
    "zeroth": ("((a+b+c+d)^80)^0 == 1", ROUTES, FORMATS),
    "hidden-a": ("0*(a+b+c+d)^80 + a == a", ROUTES, FORMATS),
    "hidden-false": ("0*(a+b+c+d)^80 + a == 0", ROUTES, FORMATS),
    "hidden-surface": (CONSTRAINT + "0*(a+b+c+d)^80 + ((a*d)^80)^0 == 1", ROUTES, FORMATS),
    # Statements with a variable over the point budget: 83,328 points, and
    # 10,082 under the constraint.
    "over": ("(7*a - 3)*(b + c + d)^60 == 0", ROUTES, FORMATS),
    "over-true": ("(7*a - 3)*(b + c + d)^60 == (7*a - 3)*(b + c + d)^60", ROUTES, FORMATS),
    "over-surface": (CONSTRAINT + "(7*a - 3)*(b + c)^70 == 0", ROUTES, FORMATS),
    "over-surface-true": (CONSTRAINT + "(7*a - 3)*(b + c)^70 == (7*a - 3)*(b + c)^70", ROUTES, FORMATS),
    # A statement whose first seed-0 draw agrees.
    "first": ("7*a == 3", ROUTES, FORMATS),
    "first-surface": (CONSTRAINT + "7*a == 3", ROUTES, FORMATS),
    # False statements that every seeded draw satisfies, so the witness is a
    # grid point; under --numeric a = 141 of "roots-more" lies in the second
    # block.
    "roots": (ROOTS + " == 0", ROUTES, FORMATS),
    "roots-surface": (CONSTRAINT + ROOTS + " == 0", ROUTES, FORMATS),
    "roots-more": (ROOTS + "".join(f"*(a - {k})" for k in range(10, 141)) + " == 0", ROUTES, FORMATS),
    # Grids of whole blocks: 256 points under the constraint, and 512 on the
    # tensor grid.
    "blocks-two": (CONSTRAINT + "b^15*c^15 == c^15*b^15", ROUTES, FORMATS),
    "blocks-four": ("a*b^7*c^7*d^7 == d^7*c^7*b^7*a", ROUTES, FORMATS),
    # Sides that share a product factor F, decided as L == R or F == 0: the
    # rest holds; the rest fails but F vanishes on the surface; the rest and
    # F both fail, and every seeded draw agrees, so the witness is a point of
    # the whole statement's grid; and 300 shared factors, true and false.
    "shared-rest": ("(b + c)^3*(25*A(3)*A(7)) == (b + c)^3*(21*A(5)^2)", ROUTES, FORMATS),
    "shared-surface": (CONSTRAINT + "D(2)*a == D(2)*b", ROUTES, FORMATS),
    "shared-free": ("D(2)*a == D(2)*b", ROUTES, FORMATS),
    "shared-roots": (f"(b + 1)*{ROOTS} == (b + 1)*({ROOTS} - {ROOTS})", ROUTES, FORMATS),
    "shared-300": (f"{PRODUCT} == {PRODUCT}", ROUTES, FORMATS),
    "shared-300-false": (f"{PRODUCT}*a == {PRODUCT}*b", ROUTES, FORMATS),
    # Shared factors that hold a subtree the degree pass prunes, so the
    # factors are matched as given: the rest holds in the power sums; the
    # rest a == c fails at the first draw and F does not vanish; and F's
    # zeroth power is 1, with D(2) zero on the surface.
    "shared-hidden": (f"({HIDDEN})*(25*A(3)*A(7)) == ({HIDDEN})*(21*A(5)^2)", ROUTES, FORMATS),
    "shared-hidden-false": (f"({HIDDEN})*a == ({HIDDEN})*c", ROUTES, FORMATS),
    # Factors equal only once pruned, which are not matched, so the whole
    # statement is decided on its grid: true, and false at the first draw.
    "shared-apart": (f"({HIDDEN})*(25*A(3)*A(7)) == ({APART})*(21*A(5)^2)", ROUTES, FORMATS),
    "shared-apart-false": (f"({HIDDEN})*a == ({APART})*c", ROUTES, FORMATS),
    "shared-zeroth": (CONSTRAINT + "((a+b+c+d)^80)^0*D(2)*a == ((a+b+c+d)^80)^0*D(2)*b", ROUTES, FORMATS),
    # Fails to parse.
    "unparsable": ("a == (b", ROUTES, FORMATS),
}

# Targets that do not name a statement, and the help text.
UNREADABLE = (["verify", "-h"], ["verify", "nope"], ["verify", "missing.rid"], ["verify", ""])

_ELAPSED = re.compile(r' elapsed=[^ \n]*ms|"elapsed_ms":[^,}]*,')


def invocations(directory: Path):
    """Every argv of the gate, in order, writing the statement files under ``directory``."""
    targets = list(CATALOG)
    for seed in range(10):
        (directory / f"seed{seed}").mkdir()
        for statement in statements.generate(seed) + statements.true_versions(seed):
            path = f"seed{seed}/{statement.name}.rid"
            (directory / path).write_text(statement.source(), encoding="utf-8")
            targets.append(path)
    for target in targets:
        yield from variants(target)
    for name, (text, routes, formats) in EXTRAS.items():
        (directory / f"{name}.rid").write_text(text + "\n", encoding="utf-8")
        yield from variants(f"{name}.rid", routes, formats)
    yield from UNREADABLE


def variants(target: str, routes=ROUTES, formats=FORMATS):
    for route in routes:
        for seed in SEEDS:
            for format_ in formats:
                yield ["verify", target, *route, "--seed", seed, *format_]


def call(argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [argv, code, _ELAPSED.sub("", out.getvalue()), err.getvalue()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="file to write, one JSON line per invocation")
    out = parser.parse_args().out.resolve()
    # argparse wraps help to the terminal's width.
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        home = os.getcwd()
        os.chdir(directory)
        try:
            lines = [json.dumps(call(argv)) for argv in invocations(Path(directory))]
        finally:
            os.chdir(home)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sameout: {len(lines)} invocations written to {out}")


if __name__ == "__main__":
    main()
