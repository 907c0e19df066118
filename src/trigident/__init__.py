"""Exact power-sum trigonometry: linearization, identity checking, discovery.

The package works with the shifted-cosine power sums

    f_n(theta) = sum_{k=0}^{N-1} cos^n(theta + 2*k*pi/N)

entirely over the rationals: it linearizes them into cosine harmonics,
verifies product identities between power-sum brackets symbolically,
searches for new product-equals-square relations, and exposes all of it
through a small statement language and a command-line tool.
"""

from __future__ import annotations

from .algebra import VARIABLES, Monomial, Polynomial
from .discovery import (
    DiscoveredIdentity,
    DiscoveryQuery,
    derive_constant,
    discover,
    emit_statement,
    render_relation,
)
from .dsl import (
    DslError,
    DslSemanticError,
    DslSyntaxError,
    Format,
    load_statement,
    parse,
    render,
)
from .fourier import (
    FourierExpansion,
    Mode,
    eval_expansion,
    linearize_closed,
    linearize_oracle,
    single_harmonic,
    to_json,
)
from .identities import (
    Add,
    Bracket,
    BracketKind,
    Expr,
    IdentityStatement,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    Verdict,
    VerificationReport,
    bracket_poly,
    catalog,
    catalog_entry,
    expr_to_poly,
    expr_value,
    render_report,
    report_json,
    spot_check,
    verify,
)
from .polar import PolarForm, ZeroSumTriple, compose, decompose, pair_product_sum

__version__ = "0.1.0"

__all__ = [
    "VARIABLES",
    "Monomial",
    "Polynomial",
    "FourierExpansion",
    "Mode",
    "linearize_closed",
    "linearize_oracle",
    "eval_expansion",
    "single_harmonic",
    "to_json",
    "PolarForm",
    "ZeroSumTriple",
    "compose",
    "decompose",
    "pair_product_sum",
    "Add",
    "Bracket",
    "BracketKind",
    "Expr",
    "IdentityStatement",
    "Mul",
    "Num",
    "Pow",
    "Sub",
    "Var",
    "Verdict",
    "VerificationReport",
    "bracket_poly",
    "catalog",
    "catalog_entry",
    "expr_to_poly",
    "expr_value",
    "render_report",
    "report_json",
    "spot_check",
    "verify",
    "DiscoveredIdentity",
    "DiscoveryQuery",
    "derive_constant",
    "discover",
    "emit_statement",
    "render_relation",
    "DslError",
    "DslSemanticError",
    "DslSyntaxError",
    "Format",
    "load_statement",
    "parse",
    "render",
    "__version__",
]
