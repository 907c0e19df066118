import json
import time
from fractions import Fraction

import pytest

from trigident.cli import run
from trigident.dsl import load_statement
from trigident.identities import expr_value


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


@pytest.mark.parametrize(
    "constraint, expected",
    [("", "(10,1,1,1)"), ("constraint: a*d - b*c = 0; ", "(10,1,1,1/10)")],
    ids=["unconstrained", "constrained"],
)
def test_verify_finds_a_witness_when_every_draw_is_a_root(capsys, tmp_path, constraint, expected):
    # The witness search draws a from these 110 rationals, so the left side
    # vanishes at every point it can sample.
    roots = sorted({Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 10)})
    assert len(roots) == 110
    factors = "*".join(f"(a - {r})" if r > 0 else f"(a + {-r})" for r in roots)
    path = tmp_path / "roots.rid"
    path.write_text(f"{constraint}{factors} == 0\n", encoding="utf-8")
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


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "a" + ")" * 3000 + " == a", " + ".join(["a"] * 5000) + " == 5000*a"],
    ids=["nested-parentheses", "flat-sum"],
)
def test_verify_deeply_nested_statement_exits_two(capsys, tmp_path, text):
    path = tmp_path / "deep.rid"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("trigident:")


def test_verify_unknown_name_exits_two(capsys):
    code, out, err = invoke(capsys, "verify", "missing-name")
    assert code == 2
    assert out == ""
    assert "missing-name" in err


def test_verify_missing_file_exits_two(capsys):
    code, _, err = invoke(capsys, "verify", "does-not-exist.rid")
    assert code == 2
    assert "does-not-exist.rid" in err


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
    code, _, err = invoke(capsys, "polar", "decompose", "1", "1", "1")
    assert code == 2
    assert "sum to zero" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compose", "nan", "0"),
        ("compose", "inf", "0"),
        ("decompose", "nan", "0", "0"),
        ("decompose", "--", "1e200", "1e200", "-2e200"),
    ],
)
def test_polar_rejects_non_finite_input(capsys, argv):
    code, out, err = invoke(capsys, "polar", *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


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


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
