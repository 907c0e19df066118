import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trigident._record import replace
from trigident.discovery import DiscoveryQuery
from trigident.fourier import FourierExpansion, Mode
from trigident.identities import (
    Add,
    Bracket,
    BracketKind,
    IdentityStatement,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    VerificationReport,
    Verdict,
)
from trigident.polar import PolarForm, ZeroSumTriple

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    # Only what the import adds counts, so a host whose site module already
    # imports either cannot fail this.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import trigident.cli; print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    added = result.stdout.split()
    assert "trigident.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


ONE, A = Num(Fraction(1)), Var("a")

# Each class, the arguments of two equal instances, and the repr of one.
RECORDS = [
    (Num, (Fraction(1, 2),), "Num(value=Fraction(1, 2))"),
    (Var, ("a",), "Var(name='a')"),
    (Bracket, (BracketKind.D, 6), "Bracket(kind=<BracketKind.D: 'D'>, power=6)"),
    (Add, (ONE, A), "Add(left=Num(value=Fraction(1, 1)), right=Var(name='a'))"),
    (Sub, (ONE, A), "Sub(left=Num(value=Fraction(1, 1)), right=Var(name='a'))"),
    (Mul, (ONE, A), "Mul(left=Num(value=Fraction(1, 1)), right=Var(name='a'))"),
    (Pow, (A, 3), "Pow(base=Var(name='a'), exponent=3)"),
    (
        IdentityStatement,
        ("s", A, ONE, True),
        "IdentityStatement(name='s', lhs=Var(name='a'), rhs=Num(value=Fraction(1, 1)), constrained=True)",
    ),
    (
        VerificationReport,
        ("s", Verdict.PROVED, None, 0.5, int),
        "VerificationReport(name='s', verdict=<Verdict.PROVED: 'PROVED'>, witness=None, elapsed=0.5)",
    ),
    (FourierExpansion, (3, 6, {0: Fraction(15, 16)}), "FourierExpansion(shift_count=3, power=6, coefficients={0: Fraction(15, 16)})"),
    (ZeroSumTriple, (1.0, 1.0, -2.0), "ZeroSumTriple(x=1.0, y=1.0, z=-2.0)"),
    (PolarForm, (2.0, 0.5), "PolarForm(rho=2.0, theta=0.5)"),
    (DiscoveryQuery, (3, 11, Mode.DIFFERENCE), "DiscoveryQuery(shift_count=3, max_power=11, mode=<Mode.DIFFERENCE: 'difference'>)"),
]


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_a_record_compares_hashes_prints_and_freezes_as_a_frozen_dataclass(cls, args, text):
    record, twin = cls(*args), cls(*args)
    assert repr(record) == text
    assert record == twin and not record != twin
    # A dict field makes a FourierExpansion unhashable, as it made the dataclass.
    if cls is not FourierExpansion:
        assert hash(record) == hash(twin)
    # Equality is exact in the class: not with a subclass, a tuple, or anything else.
    other = type("Other", (cls,), {"__slots__": ()})(*args)
    assert record != other and other != record
    assert record != args and record.__eq__(args) is NotImplemented
    assert record.__eq__(object()) is NotImplemented
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, args[0])
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is args[0]
    assert replace(record) == record and replace(record) is not record


def test_a_record_leaves_out_what_the_dataclass_did_not_compare():
    assert Add(ONE, A) != Sub(ONE, A) != Mul(ONE, A)
    named = IdentityStatement("one", A, ONE, False)
    renamed = replace(named, name="two")
    assert (renamed.name, renamed == named, hash(renamed) == hash(named)) == ("two", True, True)
    assert named != replace(named, constrained=True)
    counted = []
    report = VerificationReport("s", Verdict.FALSIFIED, (1, 1, 1, 1), 0.5, lambda: counted.append(1) or 7)
    other = VerificationReport("s", Verdict.FALSIFIED, (1, 1, 1, 1), 0.5, lambda: 0)
    assert report == other and hash(report) == hash(other)
    assert counted == []
    assert (report.reduced_terms, report.reduced_terms, counted) == (7, 7, [1])
    # Each expansion starts with a dict of its own.
    first, second = FourierExpansion(3, 6), FourierExpansion(3, 6)
    assert first.coefficients == {} and first.coefficients is not second.coefficients


def test_replace_validates_the_polar_values_again():
    with pytest.raises(ValueError, match=r"^triple does not sum to zero: ZeroSumTriple\(x=1.0, y=1.0, z=1.0\)$"):
        replace(ZeroSumTriple(1.0, 1.0, -2.0), z=1.0)
    with pytest.raises(ValueError, match=r"^negative radius: -1.0$"):
        replace(PolarForm(2.0, 0.5), rho=-1.0)
    with pytest.raises(ValueError, match=r"^radius and angle must be finite: PolarForm\(rho=2.0, theta=nan\)$"):
        replace(PolarForm(2.0, 0.5), theta=math.nan)
    assert replace(PolarForm(2.0, 0.5), theta=1.0) == PolarForm(2.0, 1.0)
