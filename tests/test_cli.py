import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigident import cli, identities
from trigident.algebra import Polynomial
from trigident.cli import CliError, build_parser, run
from trigident.dsl import load_statement, parse
from trigident.fourier import POWER_BUDGET
from trigident.identities import CATALOG, Pow, _Decision, expr_value


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_linearize_plain(capsys):
    code, out, err = invoke(capsys, "linearize", "-N", "3", "-n", "6")
    assert code == 0
    assert out == "f_6 = 15/16 + 3/32 cos(6θ)\n"
    assert err == ""


def test_linearize_json_is_byte_exact(capsys):
    code, out, _ = invoke(capsys, "linearize", "-N", "3", "-n", "6", "--format", "json")
    assert code == 0
    assert out == (
        '{"N":3,"n":6,"terms":'
        '[{"harmonic":0,"coeff":"15/16"},{"harmonic":6,"coeff":"3/32"}]}\n'
    )


def test_linearize_latex(capsys):
    code, out, _ = invoke(capsys, "linearize", "-N", "3", "-n", "6", "--format", "latex")
    assert code == 0
    assert out == "f_{6}(\\theta) = \\frac{15}{16} + \\frac{3}{32}\\cos(6\\theta)\n"


def test_linearize_rejects_bad_arguments(capsys):
    code, _, err = invoke(capsys, "linearize", "-N", "0", "-n", "6")
    assert code == 2
    assert "positive" in err
    code, _, _ = invoke(capsys, "linearize", "-N", "3")
    assert code == 2
    code, _, _ = invoke(capsys, "linearize", "-N", "3", "-n", "6", "--format", "xml")
    assert code == 2


def test_linearize_over_the_power_budget_exits_two(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "linearize", "-N", "3", "-n", "20000")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == f"trigident: power 20000 is over the budget of {POWER_BUDGET}\n"
    assert elapsed < 1.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("output", ["plain", "latex", "json"])
def test_linearize_coefficients_over_the_integer_string_limit_exit_two(capsys, output):
    # A 4,299-digit shift count parses, but N*C(40, 20)/2^v has more digits
    # than Python converts to a string.
    shift_count = str(10**4299 - 1)
    code, out, err = invoke(capsys, "linearize", "-N", shift_count, "-n", "40", "--format", output)
    assert (code, out) == (2, "")
    assert err == (
        f"trigident: a coefficient of f_40 has more than {sys.get_int_max_str_digits()} digits,"
        " over the limit for integer strings\n"
    )
    code, out, err = invoke(capsys, "linearize", "-N", shift_count, "-n", "0", "--format", output)
    assert (code, err) == (0, "")
    assert shift_count in out


def test_linearize_without_an_integer_string_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6, which requires-python admits, has neither the
    # limit nor sys.get_int_max_str_digits.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert invoke(capsys, "linearize", "-N", "3", "-n", "6") == (0, "f_6 = 15/16 + 3/32 cos(6θ)\n", "")


def test_verify_catalog_entry(capsys):
    code, out, _ = invoke(capsys, "verify", "ramanujan-6-10-8")
    assert code == 0
    assert out.startswith("PROVED ramanujan-6-10-8 reduced_terms=0 elapsed=")


def test_verify_all_catalog_entries_exit_zero(capsys):
    for name in (
        "ramanujan-6-10-8",
        "gen-3-7-5-six",
        "gen-3-7-5-three",
        "asym-6-8-factored",
        "asym-6-8-r2",
    ):
        code, out, _ = invoke(capsys, "verify", name)
        assert code == 0
        assert out.startswith(f"PROVED {name} ")


def test_verify_json_report(capsys):
    code, out, _ = invoke(capsys, "verify", "gen-3-7-5-three", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PROVED"
    assert payload["name"] == "gen-3-7-5-three"
    assert payload["reduced_terms"] == 0
    assert payload["witness"] is None


def test_verify_numeric_spot_check(capsys):
    code, out, _ = invoke(
        capsys, "verify", "asym-6-8-r2", "--numeric", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    assert out.startswith("PROVED asym-6-8-r2 ")


def test_verify_statement_file(capsys, tmp_path):
    path = tmp_path / "always-true.rid"
    path.write_text("D(2) == D(2)\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("PROVED always-true ")


def test_verify_falsified_exits_one(capsys, tmp_path):
    path = tmp_path / "wrong.rid"
    path.write_text(
        "constraint: a*d - b*c = 0; 64*D(6)*D(10) == 44*D(8)^2\n", encoding="utf-8"
    )
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FALSIFIED wrong witness=(")

    code, out, _ = invoke(capsys, "verify", str(path), "--numeric")
    assert code == 1
    assert out.startswith("FALSIFIED wrong witness=(")

    for seed_args, witness in [
        ((), ["3/7", "-8/5", "7/8", "-49/15"]),
        (("--seed", "3"), ["-2/9", "-5/6", "3", "45/4"]),
    ]:
        code, out, err = invoke(capsys, "verify", str(path), "--numeric", "--format", "json", *seed_args)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        del payload["elapsed_ms"]
        assert payload == {
            "verdict": "FALSIFIED",
            "name": "wrong",
            "reduced_terms": 169,
            "witness": witness,
        }


@pytest.mark.parametrize(
    "name, text, reduced_terms, witness",
    [
        (
            "wrong",
            "constraint: a*d - b*c = 0; 64*D(6)*D(10) == 44*D(8)^2",
            169,
            ["3/7", "-8/5", "7/8", "-49/15"],
        ),
        ("unconstrained", "25*A(3)*A(7) == 22*A(5)^2", 234, ["3/7", "-8/5", "7/8", "3/5"]),
    ],
)
def test_verify_json_pins_reduced_terms_and_witness(capsys, tmp_path, name, text, reduced_terms, witness):
    path = tmp_path / f"{name}.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "verify", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "FALSIFIED"
    assert payload["reduced_terms"] == reduced_terms
    assert payload["witness"] == witness


PLUS = "constraint: a*d - b*c = 0; 64*D(6)*D(10) == 45*D(8)^2 + a^16"


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
def test_verify_plain_falsifies_without_expanding(capsys, tmp_path, monkeypatch, route):
    # The first seeded draw differs, and the plain line prints no term count,
    # so nothing needs the expanded difference.
    def no_expansion(statement):
        raise AssertionError("expanded a statement the first draw falsifies")

    monkeypatch.setattr(identities, "reduce_difference", no_expansion)
    path = tmp_path / "plus.rid"
    path.write_text(PLUS + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), *route)
    assert (code, out, err) == (1, "FALSIFIED plus witness=(3/7,-8/5,7/8,-49/15)\n", "")


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
def test_running_out_of_memory_exits_two_naming_the_target(capsys, monkeypatch, route):
    # Exit 1 means FALSIFIED, so a MemoryError on either route is an error
    # line, with no traceback.
    def out_of_memory(statement, **options):
        raise MemoryError

    monkeypatch.setattr(cli, "verify", out_of_memory)
    monkeypatch.setattr(cli, "spot_check", out_of_memory)
    code, out, err = invoke(capsys, "verify", "ramanujan-6-10-8", *route)
    assert (code, out, err) == (2, "", "trigident: ramanujan-6-10-8: out of memory\n")


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
@pytest.mark.parametrize(
    "constraint, witness",
    [("", ["1", "9/4", "7/3", "-5/2"]), ("constraint: a*d - b*c = 0; ", ["3/5", "1", "9/4", "15/4"])],
    ids=["unconstrained", "constrained"],
)
def test_verify_falsifies_at_a_later_draw_when_the_first_agrees(capsys, tmp_path, monkeypatch, route, constraint, witness):
    # The first draw of seed 0 has a = 3/7, a root of 7*a - 3.  Both routes
    # find the difference nonzero on the grid certificate and take the
    # witness from the same seeded draws, so it is the second draw, and the
    # plain line expands nothing.
    expanded = []
    reduce_difference = identities.reduce_difference
    monkeypatch.setattr(identities, "reduce_difference", lambda s: expanded.append(s) or reduce_difference(s))
    path = tmp_path / "first.rid"
    path.write_text(f"{constraint}7*a == 3\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), *route, "--seed", "0")
    assert (code, out, err) == (1, f"FALSIFIED first witness=({','.join(witness)})\n", "")
    assert len(expanded) == 0
    code, out, err = invoke(capsys, "verify", str(path), *route, "--seed", "0", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    del payload["elapsed_ms"]
    assert payload == {"verdict": "FALSIFIED", "name": "first", "reduced_terms": 2, "witness": witness}


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
@pytest.mark.parametrize(
    "source, points, witness, terms",
    [
        ("(7*a - 3)*(b + c + d)^60 == 0", 83328, ["1", "9/4", "7/3", "-5/2"], 3782),
        ("constraint: a*d - b*c = 0; (7*a - 3)*(b + c)^70 == 0", 10082, ["3/5", "1", "9/4", "15/4"], 142),
    ],
    ids=["unconstrained", "constrained"],
)
def test_verify_expands_over_the_grid_budget_when_the_first_draw_agrees(
    capsys, tmp_path, monkeypatch, route, source, points, witness, terms
):
    # Over the point budget the grid decides nothing.  The first draw of seed
    # 0 has a = 3/7, so symbolic verify expands the difference once, finds it
    # nonzero and goes on with the same generator: the witness is the second
    # draw, as --numeric reports it without expanding.
    path = tmp_path / "over.rid"
    path.write_text(source + "\n", encoding="utf-8")
    decision = _Decision(load_statement(path))
    assert (decision.grid_count, decision.blocks()) == (points, None)
    expanded = []
    reduce_difference = identities.reduce_difference
    monkeypatch.setattr(identities, "reduce_difference", lambda s: expanded.append(s) or reduce_difference(s))
    code, out, err = invoke(capsys, "verify", str(path), *route, "--seed", "0")
    assert (code, out, err) == (1, f"FALSIFIED over witness=({','.join(witness)})\n", "")
    assert len(expanded) == (0 if route else 1)
    code, out, err = invoke(capsys, "verify", str(path), *route, "--seed", "0", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    del payload["elapsed_ms"]
    assert payload == {"verdict": "FALSIFIED", "name": "over", "reduced_terms": terms, "witness": witness}
    assert len(expanded) == (1 if route else 2)


# The sampler draws every coordinate from these 110 rationals n/d with
# 1 <= |n|, d <= 9, so this product of (a - r) vanishes at every point it
# can sample.
SAMPLED_RATIONALS = sorted({Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 10)})
assert len(SAMPLED_RATIONALS) == 110
ROOT_PRODUCT = "*".join(f"(a - {r})" if r > 0 else f"(a + {-r})" for r in SAMPLED_RATIONALS)


@pytest.mark.parametrize(
    "constraint, expected",
    [("", "(10,1,1,1)"), ("constraint: a*d - b*c = 0; ", "(10,1,1,1/10)")],
    ids=["unconstrained", "constrained"],
)
def test_verify_finds_a_witness_when_every_draw_is_a_root(capsys, tmp_path, constraint, expected):
    path = tmp_path / "roots.rid"
    path.write_text(f"{constraint}{ROOT_PRODUCT} == 0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", str(path))
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (1, "")
    assert out == f"FALSIFIED roots witness={expected}\n"
    witness = tuple(Fraction(v) for v in out[out.index("(") + 1:out.rindex(")")].split(","))
    statement = load_statement(path)
    assert expr_value(statement.lhs, witness) != expr_value(statement.rhs, witness)
    if constraint:
        a, b, c, d = witness
        assert a * d == b * c


def test_verify_numeric_falsifies_a_statement_that_vanishes_on_the_sampling_box(capsys, tmp_path):
    # Every seeded draw is a root, so the witness is the certificate's
    # integer point: a = 10 is the first of t = 1..111 that is no root.
    path = tmp_path / "roots.rid"
    path.write_text(f"{ROOT_PRODUCT} == 0\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, err) == (1, "")
    assert out == "FALSIFIED roots witness=(10,0,0,0)\n"
    witness = tuple(Fraction(v) for v in out[out.index("(") + 1:out.rindex(")")].split(","))
    statement = load_statement(path)
    assert expr_value(statement.lhs, witness) != expr_value(statement.rhs, witness)
    decision = _Decision(statement)
    assert decision.grid_count == sum(map(len, decision.blocks())) == 111


def test_verify_numeric_reports_the_first_disagreement_past_the_first_block(capsys, tmp_path, monkeypatch):
    # The roots a = 10..140 as well: every draw is still a root, and the
    # first of t = 1..242 that is no root, a = 141, lies inside the second
    # block of certificate points.  The line is the one the point-by-point
    # evaluation printed.  The decision finds that point, and the witness is
    # the point it found: each block of the grid is built once.
    path = tmp_path / "roots.rid"
    more_roots = "".join(f"*(a - {k})" for k in range(10, 141))
    path.write_text(f"{ROOT_PRODUCT}{more_roots} == 0\n", encoding="utf-8")
    built, blocks = [], identities._blocks

    def recorded(points):
        for block in blocks(points):
            built.append(len(block))
            yield block

    monkeypatch.setattr(identities, "_blocks", recorded)
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    monkeypatch.undo()
    assert (code, err) == (1, "")
    assert out == "FALSIFIED roots witness=(141,0,0,0)\n"
    assert built == [identities._BLOCK_SIZE, 242 - identities._BLOCK_SIZE]
    decision = _Decision(load_statement(path))
    points = [point for block in decision.blocks() for point in block.points]
    assert decision.grid_count == len(points) == 242
    assert identities._BLOCK_SIZE < points.index((141, 0, 0, 0)) < 2 * identities._BLOCK_SIZE


# False statements whose sides agree on a certificate one point short: at
# t = 1 alone; at b = 0..15 alone; on the simplex lattice of total degree 3
# in (b, c, d) alone; at b = 0..2, for a cubic in b spelled with powers;
# and, under the constraint, where d = b*c is 0 or 1.
B_ROOTS = "*".join(["b"] + [f"(b - {k}*a)" for k in range(1, 16)])
SUM_ROOTS = "*".join(["(b + c + d)"] + [f"(b + c + d - {k}*a)" for k in range(1, 4)])


@pytest.mark.parametrize(
    "text",
    [
        "a^2 == a",
        f"constraint: a*d - b*c = 0; {B_ROOTS} == 0",
        f"{SUM_ROOTS} == 0",
        "b^3 + 2*a^2*b == 3*a*b^2",
        "constraint: a*d - b*c = 0; d*(d - a) == 0",
    ],
    ids=["one-scale", "one-short-in-b", "simplex", "power-degree", "d-under-constraint"],
)
def test_verify_numeric_falsifies_a_statement_that_vanishes_on_a_smaller_grid(capsys, tmp_path, text):
    path = tmp_path / "short.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["verdict"] == "FALSIFIED"
    witness = tuple(Fraction(v) for v in payload["witness"])
    statement = load_statement(path)
    assert expr_value(statement.lhs, witness) != expr_value(statement.rhs, witness)


def test_verify_non_ascii_digit_exits_two_with_its_position(capsys, tmp_path):
    path = tmp_path / "superscript.rid"
    path.write_text("D(\u00b2) == 0\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: 1:3: unexpected character" in err


@pytest.mark.parametrize("text, position", [(b"a ==\r b c\n", "1:9"), (b"a ==\r\n b c\n", "2:4")], ids=["cr", "crlf"])
def test_verify_reads_a_carriage_return_in_a_file_as_whitespace(capsys, tmp_path, text, position):
    # The file is parsed exactly as read, so only its newline ends a line.
    path = tmp_path / "cr.rid"
    path.write_bytes(text)
    message = f"trigident: {path}: {position}: expected end of input, got 'c'\n"
    assert invoke(capsys, "verify", str(path)) == (2, "", message)


def test_verify_numeric_point_budget(capsys, tmp_path):
    # b^n*c^n under the constraint needs the (n + 1)^2 grid points of (b, c):
    # 10,000 for n = 99, exactly the budget, and 10,201 for n = 100.
    path = tmp_path / "over.rid"
    path.write_text("constraint: a*d - b*c = 0; b^99*c^99 == b^99*c^99\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, err) == (0, "")
    assert out.startswith("PROVED over reduced_terms=0 ")
    path.write_text("constraint: a*d - b*c = 0; b^100*c^100 == b^100*c^100\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, out) == (2, "")
    assert err == (
        "trigident: over: deciding it exactly needs at least 10201 integer points,"
        " over the budget of 10000, and all 100 seeded draws agree; verify it symbolically instead\n"
    )
    # Brackets and numbers alone are decided by the power sums, held to the
    # budget by their count in the triples' invariants: D(n) under the
    # constraint counts C(n//3 + 2, 2), 595 for D(100) and 1,378 for
    # D(150)*D(3), which the grid needed 10,201 and 23,716 points for.
    for text in ("D(100) == D(100)", "D(150)*D(3) == D(3)*D(150)"):
        path.write_text(f"constraint: a*d - b*c = 0; {text}\n", encoding="utf-8")
        code, out, err = invoke(capsys, "verify", str(path), "--numeric")
        assert (code, err) == (0, "")
        assert out.startswith("PROVED over reduced_terms=0 ")
    # Unconstrained, A(60)*B(40) counts C(100//2 + 3, 3) = 23,426, and
    # D(210)*D(210) under the constraint C(420//3 + 2, 2) = 10,011, both over
    # the budget; the refusal names that count.
    for text, count in (
        ("A(60)*B(40) == B(40)*A(60)", 23426),
        ("constraint: a*d - b*c = 0; D(210)*D(210) == D(210)^2", 10011),
    ):
        path.write_text(text + "\n", encoding="utf-8")
        code, out, err = invoke(capsys, "verify", str(path), "--numeric")
        assert (code, out) == (2, "")
        assert err == (
            f"trigident: over: deciding it exactly needs at least {count} integer points,"
            " over the budget of 10000, and all 100 seeded draws agree; verify it symbolically instead\n"
        )
    # A false statement over the budget still gets its first seeded draw.
    path.write_text("constraint: a*d - b*c = 0; b^100*c^100 == b^100*c^100 + 1\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, err) == (1, "")
    assert out == "FALSIFIED over witness=(3/7,-8/5,7/8,-49/15)\n"


@pytest.mark.parametrize(
    "target",
    ["ramanujan-6-10-8", "gen-3-7-5-six", "gen-3-7-5-three", "asym-6-8-r2",
     "constraint: a*d - b*c = 0; D(200)*D(200) == D(200)^2"],
)
def test_verify_numeric_decides_brackets_and_numbers_by_the_power_sums(capsys, tmp_path, monkeypatch, target):
    # No certificate point is evaluated: the sides are compared as
    # polynomials in the triples' invariants, as symbolic verify does.
    def no_blocks(*args):
        raise AssertionError("evaluated a bracket statement at certificate points")

    monkeypatch.setattr(identities, "_blocks", no_blocks)
    if target not in CATALOG:
        path = tmp_path / "d200.rid"
        path.write_text(target + "\n", encoding="utf-8")
        target = str(path)
    code, out, err = invoke(capsys, "verify", target, "--numeric")
    assert (code, err) == (0, "")
    assert out.startswith("PROVED ")


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
def test_verify_cancels_a_shared_factor_and_decides_the_rest_by_the_power_sums(capsys, tmp_path, monkeypatch, route):
    # F*L == F*R holds when L == R, and here L == R is gen-3-7-5-three, of
    # brackets and numbers alone, so no point of the whole statement's grid
    # is evaluated.
    def no_block(points):
        raise AssertionError("evaluated a statement with a shared factor at certificate points")

    monkeypatch.setattr(identities, "_Block", no_block)
    path = tmp_path / "shared.rid"
    path.write_text("(b + c)^3*(25*A(3)*A(7)) == (b + c)^3*(21*A(5)^2)\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), *route)
    assert (code, err) == (0, "")
    assert out.startswith("PROVED shared reduced_terms=0 ")


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
@pytest.mark.parametrize(
    "text",
    [
        "0*(A(2)+A(3)+B(2)+B(3))^80 == 0",
        "((A(6)+B(6))^1000)^0 == 1",
        "constraint: a*d - b*c = 0; 0*(D(2)+D(3))^200*D(5) == D(6)^0 - 1",
    ],
    ids=["zero-factor", "zeroth-power", "both-under-constraint"],
)
def test_verify_never_builds_what_a_zero_factor_or_zeroth_power_hides(capsys, tmp_path, monkeypatch, text, route):
    # The degrees of the whole leave the hidden power out, and its power
    # sums would take minutes or longer to build; no bracket is left to
    # build once the sides are pruned.
    def no_power_sums(self, triple, power):
        raise AssertionError("built the power sums of a hidden subtree")

    monkeypatch.setattr(identities._PowerSums, "of", no_power_sums)
    path = tmp_path / "hidden.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), *route)
    assert (code, err) == (0, "")
    assert out.startswith("PROVED hidden reduced_terms=0 ")


def no_hidden_powers(monkeypatch):
    """Make building any power fail when expanded, and evaluating a program with a power of 60 or more at any point."""
    value = identities._value

    def no_power(self, exponent):
        raise AssertionError("built a power that a zero factor or zeroth power hides")

    def no_large_power(program, point):
        if any(type(node) is Pow and node.exponent >= 60 for node in program):
            raise AssertionError("evaluated a power that a zero factor or zeroth power hides")
        return value(program, point)

    monkeypatch.setattr(Polynomial, "__pow__", no_power)
    monkeypatch.setattr(identities, "_value", no_large_power)


@pytest.mark.parametrize(
    "text",
    [
        "0*(a+b+c+d)^80 == 0",
        "((a+b+c+d)^80)^0 == 1",
        "constraint: a*d - b*c = 0; 0*(a+b+c+d)^80*D(5) + a*d == b*c + ((a+b)^60)^0 - 1",
    ],
    ids=["zero-factor", "zeroth-power", "both-under-constraint"],
)
def test_verify_never_builds_a_hidden_subtree_with_a_variable(capsys, tmp_path, monkeypatch, text):
    # Expanded, (a+b+c+d)^80 has 91,881 terms and takes tens of seconds to
    # build.  Every route evaluates the statement as the degree pass prunes
    # it, and then no power is left.
    no_hidden_powers(monkeypatch)
    path = tmp_path / "hidden.rid"
    path.write_text(text + "\n", encoding="utf-8")
    for route in [], ["--numeric"]:
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", str(path), *route)
        assert time.perf_counter() - start < 1.0, route
        assert (code, err) == (0, ""), route
        assert out.startswith("PROVED hidden reduced_terms=0 "), route


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
def test_a_false_statement_with_a_hidden_subtree_counts_the_pruned_difference(capsys, tmp_path, monkeypatch, route):
    # The JSON count expands the pruned difference, a, and the witness is
    # the first seed-0 draw.
    no_hidden_powers(monkeypatch)
    path = tmp_path / "hidden.rid"
    path.write_text("0*(a+b+c+d)^80 + a == 0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", str(path), "--format", "json", *route)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert (report["verdict"], report["reduced_terms"], report["witness"]) == (
        "FALSIFIED", 1, ["3/7", "-8/5", "7/8", "3/5"]
    )


def test_reduce_difference_expands_the_pruned_difference(monkeypatch):
    # The public expansion evaluates the decision's program, so the power that
    # the zero factor hides, of 91,881 terms expanded, is never built.
    no_hidden_powers(monkeypatch)
    statement = parse("0*(a+b+c+d)^80 + a*b == a*b", "hidden")
    start = time.perf_counter()
    assert identities.reduce_difference(statement) == Polynomial.zero()
    assert time.perf_counter() - start < 1.0


def test_reduce_difference_refuses_what_the_decision_refuses():
    # The zero factor hides a power of degree 10**12 from the difference, but
    # not from the decision, whose error names the statement.
    statement = parse("0*(2*a)^1000000000000 == 0", "huge")
    with pytest.raises(ValueError, match="^huge: degree 1000000000000 is over the budget of 10000$"):
        identities.reduce_difference(statement)


@pytest.mark.parametrize(
    "text",
    [
        "A(200)*A(2) == A(2)*A(200)",
        "constraint: a*d - b*c = 0; D(240)*D(240) == D(240)^2",
        "A(2000) == A(2000)",
        "A(5000)*A(2) == A(2)*A(5000)",
    ],
    ids=["commuted", "squared-under-constraint", "reflexive-2000", "commuted-5000"],
)
def test_verify_proves_high_bracket_powers_without_expanding(capsys, tmp_path, monkeypatch, text):
    # Expanded in a, b, c, d each statement takes minutes; written in the
    # triples' invariants by Newton's identities it takes well under a second.
    def no_expansion(statement):
        raise AssertionError("expanded a statement the power sums prove")

    monkeypatch.setattr(identities, "reduce_difference", no_expansion)
    path = tmp_path / "high.rid"
    path.write_text(text + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.startswith("PROVED high reduced_terms=0 ")


HUGE_POWERS = [
    ("(a+1)^1000000000000 == 0", "at least 1000000000000"),
    ("b^1000000000000 == b^1000000000000", "1000000000000"),
    # One certificate point would do for these, but its value is too large.
    ("a^1000000000000 == 0", "1000000000000"),
    ("(2*a)^1000000000000 == 0", "1000000000000"),
    # A zero factor hides the huge power from the whole difference.
    ("0*(2*a)^1000000000000 == 0", "1000000000000"),
    ("0*(2*a)^1000000000000 == 1", "1000000000000"),
    ("0*D(1000000000000) == 0", "1000000000000"),
    ("0*D(1000000000000) == 1", "1000000000000"),
]


@pytest.mark.parametrize("text, degree", HUGE_POWERS)
def test_verify_numeric_over_the_degree_budget_draws_nothing(capsys, tmp_path, monkeypatch, text, degree):
    # A seeded draw would compute the huge power at a rational point.
    def no_draws(*args):
        raise AssertionError("seeded draws ran over the degree budget")

    monkeypatch.setattr(identities, "_first_disagreement", no_draws)
    monkeypatch.setattr(identities, "_value", no_draws)
    path = tmp_path / "huge.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, out) == (2, "")
    assert err == f"trigident: huge: degree {degree} is over the budget of 10000\n"


@pytest.mark.parametrize("text, degree", HUGE_POWERS)
def test_verify_over_the_degree_budget_exits_two(capsys, tmp_path, monkeypatch, text, degree):
    # Expanding the huge power would not end.
    def no_expansion(statement):
        raise AssertionError("expanded a statement over the degree budget")

    monkeypatch.setattr(identities, "reduce_difference", no_expansion)
    path = tmp_path / "huge.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"trigident: huge: degree {degree} is over the budget of 10000\n"


@pytest.mark.parametrize("route", [[], ["--numeric"]], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("text", ["2^1000000000000 == 0", "(1/2)^1000000000000 == a"])
def test_verify_power_of_a_constant_over_the_budget_exits_two(capsys, tmp_path, monkeypatch, text, route):
    # Degree 0, so only the exponent shows that the value is huge.
    def no_evaluation(*args):
        raise AssertionError("evaluated a power over the budget")

    for name in ("reduce_difference", "_blocks", "_value", "_first_disagreement"):
        monkeypatch.setattr(identities, name, no_evaluation)
    path = tmp_path / "huge.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), *route)
    assert (code, out) == (2, "")
    assert err == "trigident: huge: exponent 1000000000000 is over the budget of 10000\n"


def test_verify_overlong_number_exits_two_with_its_position(capsys, tmp_path):
    path = tmp_path / "long.rid"
    path.write_text("1" * 5000 + " == a\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path), "--numeric")
    assert (code, out) == (2, "")
    assert err.startswith(f"trigident: {path}: 1:1: number has 5000 digits")


DEEP_STATEMENTS = {
    "nested-parentheses": "(" * 3000 + "a" + ")" * 3000 + " == a",
    "flat-sum": " + ".join(["a"] * 5000) + " == 5000*a",
    # 9,000 nodes deep: Pow(Add(Mul(..., 1), 0), 1) 3,000 times over D(6).
    "deep-bracket": "constraint: a*d - b*c = 0; " + "(" * 3000 + "D(6)" + "*1 + 0)^1" * 3000 + " == D(6)",
}


@pytest.mark.parametrize("route", [[], ["--numeric"], ["--format", "json"]], ids=["symbolic", "numeric", "json"])
@pytest.mark.parametrize("name", list(DEEP_STATEMENTS))
def test_verify_deeply_nested_statement_is_proved(capsys, tmp_path, name, route):
    # Parsing, the degree pass and every evaluation use explicit stacks, so
    # depth is no limit on a statement of low degree.
    path = tmp_path / f"{name}.rid"
    path.write_text(DEEP_STATEMENTS[name] + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", str(path), *route)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    if route == ["--format", "json"]:
        assert json.loads(out)["verdict"] == "PROVED"
    else:
        assert out.startswith(f"PROVED {name} reduced_terms=0 ")
    assert elapsed < 1.0


def test_verify_unclosed_parentheses_exit_two_with_the_position(capsys, tmp_path):
    path = tmp_path / "unclosed.rid"
    path.write_text("(" * 3000 + "a == a\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"trigident: {path}: 1:3003: expected ')', got '=='\n"


def test_verify_unknown_name_exits_two(capsys):
    code, out, err = invoke(capsys, "verify", "missing-name")
    assert code == 2
    assert out == ""
    assert "missing-name" in err


def test_verify_missing_file_exits_two(capsys):
    code, _, err = invoke(capsys, "verify", "does-not-exist.rid")
    assert code == 2
    assert "does-not-exist.rid" in err


def test_verify_unreadable_targets_exit_two_with_pinned_stderr(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("f.rid").write_text("a == a\n", encoding="utf-8")
    Path("dir.rid").mkdir()
    Path("dangling.rid").symlink_to("nowhere.rid")
    Path("latin.rid").write_bytes(b"a == \xff\n")
    Path("sub").mkdir()
    Path("sub/bad.rid").write_bytes(b"\xff\xfe == 0\n")
    cases = {
        "missing.rid": "no such file: missing.rid",
        "dangling.rid": "no such file: dangling.rid",
        "f.rid/x.rid": "no such file: f.rid/x.rid",
        "dir.rid": "[Errno 21] Is a directory: 'dir.rid'",
        # Named as every other unreadable file is.
        "latin.rid": "latin.rid: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte",
        "sub/bad.rid": "sub/bad.rid: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        # A path the operating system cannot name does not exist.
        "nul\0.rid": "no such file: nul\0.rid",
        "nul\0": "unknown identity 'nul\\x00': not a catalog name or .rid file",
        # Not the working directory, which the empty path would name.
        "": "unknown identity '': not a catalog name or .rid file",
    }
    for target, message in cases.items():
        assert invoke(capsys, "verify", target) == (2, "", f"trigident: {message}\n"), target


def test_verify_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.rid"
    path.write_text("64*D(6)* == 1\n", encoding="utf-8")
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert "broken.rid" in err
    assert "expected" in err


def test_discover_plain_listing(capsys):
    code, out, _ = invoke(capsys, "discover", "-N", "3", "--max-n", "11")
    assert code == 0
    assert out.splitlines() == [
        "m=3 n=7 p=5 harmonic=3 square_factor=21 product_factor=25",
        "m=6 n=10 p=8 harmonic=6 square_factor=45 product_factor=64",
    ]

    code, out, _ = invoke(capsys, "discover", "-N", "5", "--max-n", "13")
    assert code == 0
    assert out.splitlines() == [
        "m=5 n=9 p=7 harmonic=5 square_factor=36 product_factor=49",
        "m=5 n=13 p=9 harmonic=5 square_factor=715 product_factor=1296",
        "m=7 n=11 p=9 harmonic=5 square_factor=385 product_factor=432",
        "m=9 n=13 p=11 harmonic=5 square_factor=52 product_factor=55",
    ]


def test_discover_json(capsys):
    code, out, _ = invoke(
        capsys, "discover", "-N", "3", "--max-n", "11", "--emit", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"m": 3, "n": 7, "p": 5, "harmonic": 3, "P": 21, "Q": 25},
        {"m": 6, "n": 10, "p": 8, "harmonic": 6, "P": 45, "Q": 64},
    ]


def test_discover_dsl_emission(capsys):
    code, out, _ = invoke(
        capsys, "discover", "-N", "3", "--max-n", "11", "--emit", "dsl"
    )
    assert code == 0
    assert out.splitlines() == [
        "constraint: a*d - b*c = 0; 25*D(3)*D(7) == 21*D(5)^2",
        "constraint: a*d - b*c = 0; 64*D(6)*D(10) == 45*D(8)^2",
    ]

    code, out, _ = invoke(
        capsys, "discover", "-N", "5", "--max-n", "9", "--emit", "dsl"
    )
    assert code == 0
    assert out == "49*(f_5(θ1) - f_5(θ2))*(f_9(θ1) - f_9(θ2)) = 36*(f_7(θ1) - f_7(θ2))^2\n"


def test_discover_pointwise_mode(capsys):
    code, out, _ = invoke(
        capsys, "discover", "-N", "3", "--max-n", "11", "--mode", "point",
        "--emit", "dsl",
    )
    assert code == 0
    assert out == "25*A(3)*A(7) == 21*A(5)^2\n"


def test_discover_latex_emission(capsys):
    code, out, _ = invoke(
        capsys, "discover", "-N", "3", "--max-n", "11", "--emit", "latex"
    )
    assert code == 0
    assert "\\left\\{" in out
    assert "ad=bc \\implies" in out

    code, out, _ = invoke(
        capsys, "discover", "-N", "5", "--max-n", "9", "--emit", "latex"
    )
    assert code == 0
    assert "f_{5}(\\theta_1)" in out
    assert out == (
        "49\\bigl(f_{5}(\\theta_1)-f_{5}(\\theta_2)\\bigr)"
        "\\bigl(f_{9}(\\theta_1)-f_{9}(\\theta_2)\\bigr)"
        " = 36\\bigl(f_{7}(\\theta_1)-f_{7}(\\theta_2)\\bigr)^{2}\n"
    )

    code, out, _ = invoke(
        capsys, "discover", "-N", "5", "--max-n", "9", "--mode", "point",
        "--emit", "latex",
    )
    assert code == 0
    assert out == "49f_{5}(\\theta)f_{9}(\\theta) = 36f_{7}(\\theta)^{2}\n"


def test_discover_empty_result_is_success(capsys):
    code, out, _ = invoke(capsys, "discover", "-N", "4", "--max-n", "9")
    assert code == 0
    assert out == ""


def test_discover_over_its_budgets_exits_two(capsys):
    # Before the budgets, N = 1000 printed 35 MB in 6.4 s, N = 3000 ran past
    # 60 s, and N = 10^30 + 1 printed 10 MB before a constant outgrew the
    # limit on integer strings.
    big = str(10**30 + 1)
    for shift_count, max_power, message in (
        ("1000", "1000000000000", "the query has 62250 relations, over the budget of 10000"),
        ("3000", "1000000000000", "the query has 561750 relations, over the budget of 10000"),
        (big, str(10**30 + 401), f"power {10**30 + 401} is over the budget of 10000"),
    ):
        for emit in ((), ("--emit", "json")):
            start = time.perf_counter()
            code, out, err = invoke(
                capsys, "discover", "-N", shift_count, "--max-n", max_power, *emit
            )
            elapsed = time.perf_counter() - start
            assert code == 2
            assert out == ""
            assert err == f"trigident: {message}\n"
            assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_polar_decompose(capsys):
    code, out, _ = invoke(capsys, "polar", "decompose", "1", "1", "-2")
    assert code == 0
    assert out == "rho=2 theta=1.0471975511966\n"


def test_polar_compose(capsys):
    code, out, _ = invoke(capsys, "polar", "compose", "2", "1.0471975511965976")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert abs(float(fields["x"]) - 1.0) <= 1e-12
    assert abs(float(fields["y"]) - 1.0) <= 1e-12
    assert abs(float(fields["z"]) + 2.0) <= 1e-12


def test_polar_rejects_non_zero_sum_input(capsys):
    code, out, err = invoke(capsys, "polar", "decompose", "1", "1", "1")
    assert (code, out) == (2, "")
    assert err == "trigident: triple does not sum to zero: ZeroSumTriple(x=1.0, y=1.0, z=1.0)\n"


# Each refused polar argv and the message it prints, the value's repr included.
NON_FINITE = {
    ("compose", "nan", "0"): "radius and angle must be finite: PolarForm(rho=nan, theta=0.0)",
    ("compose", "inf", "0"): "radius and angle must be finite: PolarForm(rho=inf, theta=0.0)",
    ("decompose", "nan", "0", "0"): "triple entries must be finite: ZeroSumTriple(x=nan, y=0.0, z=0.0)",
    ("decompose", "--", "1e200", "1e200", "-2e200"):
        "triple too large for a finite radius: ZeroSumTriple(x=1e+200, y=1e+200, z=-2e+200)",
}


@pytest.mark.parametrize("argv", list(NON_FINITE))
def test_polar_rejects_non_finite_input(capsys, argv):
    code, out, err = invoke(capsys, "polar", *argv)
    assert (code, out) == (2, "")
    assert err == f"trigident: {NON_FINITE[argv]}\n"


def test_catalog_listing(capsys):
    code, out, _ = invoke(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == (
        "ramanujan-6-10-8: 64*D(6)*D(10) == 45*D(8)^2 assuming a*d = b*c"
    )
    assert all(":" in line for line in lines)
    assert lines[1:] == [
        "gen-3-7-5-six: 25*D(3)*D(7) == 21*D(5)^2 assuming a*d = b*c",
        "gen-3-7-5-three: 25*A(3)*A(7) == 21*A(5)^2, unconditional",
        "asym-6-8-factored: 8*(a^2+a*b+b^2)*(a^2+a*c+c^2)*D(6) == 3*a^2*D(8)"
        " assuming a*d = b*c",
        "asym-6-8-r2: 4*A(2)*D(6) == 3*D(8) assuming a*d = b*c",
    ]


def test_process_exit_codes(tmp_path):
    def trigident(*argv):
        return subprocess.run(
            [sys.executable, "-m", "trigident.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )

    assert trigident("verify", "ramanujan-6-10-8").returncode == 0
    path = tmp_path / "wrong.rid"
    path.write_text("constraint: a*d - b*c = 0; 64*D(6)*D(10) == 44*D(8)^2\n", encoding="utf-8")
    falsified = trigident("verify", str(path))
    assert falsified.returncode == 1
    assert falsified.stdout.startswith("FALSIFIED ")
    unknown = trigident("verify", "missing-name")
    assert (unknown.returncode, unknown.stdout) == (2, "")


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def reference_run(argv):
    # Reference front end: the top-level parser reads every argv and hands a
    # subcommand's words to that subcommand's parser itself.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"trigident: {exc}", file=sys.stderr)
        return 2


SUBCOMMANDS = ("linearize", "verify", "discover", "polar", "catalog")
DISCOVER = ["discover", "-N", "3", "--max-n", "11"]

# Each argv that reaches the top-level parser, each kind of usage error a
# subcommand's parser reports, and outputs that carry no elapsed time.
DISPATCH_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "discover"],
    ["frobnicate"],
    ["frobnicate", "-N", "3"],
    ["Discover", *DISCOVER[1:]],
    *([name, "-h"] for name in SUBCOMMANDS),
    ["polar", "decompose", "-h"],
    ["polar", "compose", "--help"],
    ["discover", "--he"],
    ["linearize", "-N", "3", "-n", "4", "extra"],
    ["verify", "ramanujan-6-10-8", "extra", "--more"],
    [*DISCOVER, "extra"],
    [*DISCOVER, "--unknown", "1"],
    ["polar", "decompose", "1", "-1", "0", "extra"],
    ["catalog", "extra"],
    ["discover", "-N", "three", "--max-n", "11"],
    ["linearize", "-N", "3", "-n", "4.5"],
    ["verify", "ramanujan-6-10-8", "--seed", "x"],
    ["polar", "compose", "1", "east"],
    [*DISCOVER, "--mode", "both"],
    [*DISCOVER, "--emit", "yaml"],
    ["linearize", "-N", "3", "-n", "4", "--format", "json5"],
    ["verify", "ramanujan-6-10-8", "--format", "latex"],
    ["discover", "-N", "3"],
    ["discover"],
    ["linearize", "-n", "4"],
    ["verify"],
    ["polar"],
    ["polar", "spin"],
    ["polar", "compose", "1", "2", "3"],
    [*DISCOVER, "--emit", "json"],
    [*DISCOVER, "--mode", "point", "--emit", "dsl"],
    ["discover", "-N3", "--max=11", "--emit", "latex"],
    [*DISCOVER, "--", "extra"],
    ["discover", "--", "-N", "3"],
    ["discover", "-N", "0", "--max-n", "11"],
    ["linearize", "-N", "3", "-n", "6", "--format", "json"],
    ["verify", "missing-name"],
    ["polar", "compose", "1", "0.5"],
    ["polar", "decompose", "1", "1", "1"],
    ["catalog"],
]


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_dispatch_keeps_the_bytes_of_the_top_level_parser(capsys, argv):
    expected = (reference_run(argv), *capsys.readouterr())
    assert invoke(capsys, *argv) == expected


def test_a_subcommand_is_parsed_by_its_own_parser_alone(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser read a subcommand's argv")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    expected = '[{"m":3,"n":7,"p":5,"harmonic":3,"P":21,"Q":25},{"m":6,"n":10,"p":8,"harmonic":6,"P":45,"Q":64}]\n'
    assert invoke(capsys, *DISCOVER, "--emit", "json") == (0, expected, "")
    code, out, err = invoke(capsys, *DISCOVER, "extra")
    assert (code, out) == (2, "")
    assert err.endswith("\ntrigident: error: unrecognized arguments: extra\n")


def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    for argv in ([*DISCOVER, "--emit", "json"], [*DISCOVER, "extra"], ["-h"], []):
        monkeypatch.setattr(sys, "argv", ["trigident", *argv])
        expected = (reference_run(None), *capsys.readouterr())
        assert (run(), *capsys.readouterr()) == expected
        assert invoke(capsys, *argv) == expected


def run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


# Pieces of the statement language, plus hostile characters.  Numbers are the
# digits 0-3, each ending its own lexeme, and a text holds at most one "^", so
# every statement is cheap to decide.
DIGITS = [f"{digit} " for digit in "0123"]
VERIFY_PIECES = list("abcd") + DIGITS + [
    "A(", "B(", "D(", "(", ")", "+", "-", "*", "/", "^", "==", "=",
    "constraint: a*d - b*c = 0;", "#", "\n", "$", "\u00e9", "\u00b2",
]
# A side is mostly well formed: operator-operand pieces, minus the first operator.
OPERANDS = list("abcd") + DIGITS + [f"{kind}({digit})" for kind in "ABD" for digit in DIGITS]
SIDE_PIECES = [op + operand for op in "+-*" for operand in OPERANDS] + [
    op + digit for op in "/^" for digit in DIGITS
]
SIDE = st.lists(st.sampled_from(SIDE_PIECES), min_size=1, max_size=4).map(
    lambda pieces: "".join(pieces)[1:]
)
JUNK = st.lists(st.sampled_from(VERIFY_PIECES), max_size=3).map("".join)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    st.builds(
        "{}{}=={}{}".format,
        st.sampled_from(["", "constraint: a*d - b*c = 0;"]) | JUNK,
        SIDE,
        SIDE | JUNK,
        st.just("") | JUNK,
    ).filter(lambda text: text.count("^") <= 1)
)
def test_verify_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.rid"
    path.write_text(text, encoding="utf-8")
    for extra in ([], ["--numeric"]):
        code, out = run_quietly(["verify", str(path), *extra])
        assert code in (0, 1, 2)
        if code == 1:
            assert out.startswith("FALSIFIED ")
        if code == 2:
            assert out == ""


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-2, 64),
    st.sampled_from([-1, 0, 10**6, 10**12]) | st.integers(1, 200),
    st.sampled_from(["diff", "point"]),
)
def test_discover_exit_code_contract(shift_count, max_power, mode):
    code, out = run_quietly(
        ["discover", "-N", str(shift_count), "--max-n", str(max_power), "--mode", mode]
    )
    assert code in (0, 2)
    if code == 2:
        assert out == ""


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-2, 64),
    st.sampled_from([-1, POWER_BUDGET, POWER_BUDGET + 1, 10**12]) | st.integers(0, 400),
)
def test_linearize_exit_code_contract(shift_count, power):
    code, out = run_quietly(["linearize", "-N", str(shift_count), "-n", str(power)])
    assert code in (0, 2)
    if code == 2:
        assert out == ""
