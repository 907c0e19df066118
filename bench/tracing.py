"""Spans recorded around calls into trigident's modules, and the traced replays.

A traced op repeats the op's work as a chain of public calls, each wrapped
in a span (name, op id, parent span, start, end):

* every op: ``cli.run`` (with ``--format json`` for verify, so the reduced
  term count is printed), then the library call it wraps;
* verify ops: ``dsl.load_statement``; for symbolic ops ``identities.verify``
  and a replay of ``identities.reduce_difference`` that walks the statement
  AST through ``identities.bracket_poly`` and the ``Polynomial`` operators,
  exactly as ``expr_to_poly`` does; for numeric ops ``identities.spot_check``;
  and ``identities.expr_value`` at the benchmark's own seeded points;
* discover ops: ``discovery.discover``, then ``fourier.linearize_closed`` and
  ``fourier.single_harmonic`` once per power, and
  ``discovery.derive_constant`` once per (m, n) pair.

The ``bracket_poly`` cache is cleared before every call that expands, so each
expansion is cold, as in a fresh process.  Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from time import perf_counter

from checks import check_discover, check_verify_json
from statements import sample_point

EXPR_VALUE_POINTS = 16


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.open
        self.index = len(tracer.spans)
        tracer.spans.append([name, tracer.op, stack[-1] if stack else None, 0.0, 0.0])

    def __enter__(self):
        self.tracer.open.append(self.index)
        self.tracer.spans[self.index][3] = perf_counter()
        return self

    def __exit__(self, *exc):
        record = self.tracer.spans[self.index]
        record[4] = perf_counter()
        self.tracer.open.pop()
        return False

    @property
    def seconds(self) -> float:
        record = self.tracer.spans[self.index]
        return record[4] - record[3]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def busy(self) -> Counter:
        totals: Counter = Counter()
        for name, _, _, start, end in self.spans:
            totals[name] += end - start
        return totals

    def layer_self_time(self) -> Counter:
        """Per layer, span time minus the time covered by child spans."""
        covered = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: Counter = Counter()
        for index, (name, _, _, start, end) in enumerate(self.spans):
            layers[name.split(".")[0]] += end - start - covered[index]
        return layers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, op, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps([index, parent, op, name, start, end]) + "\n")


class Replayer:
    """Runs the traced chain of one op against the trigident modules."""

    def __init__(self, tracer: Tracer, tri):
        self.tracer = tracer
        self.tri = tri

    def _cold(self):
        self.tri.identities.bracket_poly.cache_clear()

    def replay(self, op) -> str | None:
        with self.tracer.span("bench.op"):
            if op.kind == "discover":
                return self._discover(op)
            return self._verify(op)

    # -- verify ops ----------------------------------------------------

    def _verify(self, op) -> str | None:
        tr, ids, counts = self.tracer, self.tri.identities, self.tracer.counts
        self._cold()
        with tr.span("cli.run") as cli_span:
            code, out, err = self.tri.call(op.argv + ["--format", "json"])
        problem = check_verify_json(op.statement, code, out, err)
        if problem:
            return problem
        printed_terms = json.loads(out)["reduced_terms"]
        with tr.span("dsl.load_statement"):
            statement = self.tri.dsl.load_statement(op.path)
        counts["dsl.load_statement.calls"] += 1
        counts["dsl.chars_in"] += op.chars
        self._cold()
        if op.kind == "numeric":
            with tr.span("identities.spot_check") as library_span:
                report = ids.spot_check(statement, trials=op.trials, seed=op.op_seed)
            if report.verdict is not ids.Verdict.PROVED:
                problem = f"spot_check rejected a true statement {op.label}"
        else:
            with tr.span("identities.verify") as library_span:
                report = ids.verify(statement)
            self._cold()
            with tr.span("identities.reduce_difference") as reduce_span:
                terms = len(self._reduce(statement).terms)
            counts["identities.reduce_difference.terms_out"] += terms
            if not terms == report.reduced_terms == printed_terms:
                problem = f"reduced terms {terms}/{report.reduced_terms}/{printed_terms} for {op.label}"
            if report.verdict is ids.Verdict.FALSIFIED:
                counts["identities.witness.busy_s"] += library_span.seconds - reduce_span.seconds
        counts["cli.overhead_s"] += cli_span.seconds - library_span.seconds
        return problem or self._points(statement, op)

    def _reduce(self, statement):
        algebra = self.tri.algebra
        lhs, rhs = self._expand(statement.lhs), self._expand(statement.rhs)
        with self.tracer.span("algebra.addsub"):
            difference = lhs - rhs
        if not statement.constrained:
            return difference
        b_times_c = algebra.Polynomial.variable("b") * algebra.Polynomial.variable("c")
        a = algebra.Polynomial.variable("a")
        with self.tracer.span("algebra.substitute_clear"):
            reduced = difference.substitute_clear("d", b_times_c, a)
        counts = self.tracer.counts
        counts["algebra.substitute_clear.calls"] += 1
        counts["algebra.substitute_clear.terms_in"] += len(difference.terms)
        counts["algebra.substitute_clear.terms_out"] += len(reduced.terms)
        return reduced

    def _expand(self, node):
        ids, tr, counts = self.tri.identities, self.tracer, self.tracer.counts
        Polynomial = self.tri.algebra.Polynomial
        if isinstance(node, ids.Num):
            return Polynomial.constant(node.value)
        if isinstance(node, ids.Var):
            return Polynomial.variable(node.name)
        if isinstance(node, ids.Bracket):
            with tr.span("identities.bracket_poly"):
                result = ids.bracket_poly(node.kind, node.power)
            counts["identities.bracket_poly.calls"] += 1
            counts["identities.bracket_poly.terms_out"] += len(result.terms)
            return result
        if isinstance(node, ids.Pow):
            base = self._expand(node.base)
            with tr.span("algebra.pow"):
                return base ** node.exponent
        left, right = self._expand(node.left), self._expand(node.right)
        if isinstance(node, ids.Mul):
            with tr.span("algebra.mul"):
                result = left * right
            counts["algebra.mul.calls"] += 1
            counts["algebra.mul.term_pairs"] += len(left.terms) * len(right.terms)
            counts["algebra.mul.terms_out"] += len(result.terms)
            return result
        with tr.span("algebra.addsub"):
            return left + right if isinstance(node, ids.Add) else left - right

    def _points(self, statement, op) -> str | None:
        expr_value, counts = self.tri.identities.expr_value, self.tracer.counts
        rng = random.Random(op.op_seed)
        for _ in range(EXPR_VALUE_POINTS):
            point = sample_point(statement.constrained, rng)
            values = []
            for side in (statement.lhs, statement.rhs):
                with self.tracer.span("identities.expr_value"):
                    value = expr_value(side, point)
                values.append(value)
                counts["identities.expr_value.calls"] += 1
                counts["identities.expr_value.result_bits"] += (
                    value.numerator.bit_length() + value.denominator.bit_length()
                )
            if op.statement.holds and values[0] != values[1]:
                return f"expr_value sides differ on true statement {op.label} at {point}"
        return None

    # -- discover ops --------------------------------------------------

    def _discover(self, op) -> str | None:
        tr, counts = self.tracer, self.tracer.counts
        discovery, fourier = self.tri.discovery, self.tri.fourier
        shift_count, max_n, mode_name = op.grid
        mode = fourier.Mode.DIFFERENCE if mode_name == "diff" else fourier.Mode.POINTWISE
        with tr.span("cli.run") as cli_span:
            code, out, err = self.tri.call(op.argv)
        problem = check_discover(op.expected, code, out, err)
        with tr.span("discovery.discover") as library_span:
            results = discovery.discover(discovery.DiscoveryQuery(shift_count, max_n, mode))
        counts["cli.overhead_s"] += cli_span.seconds - library_span.seconds
        for power in range(1, max_n + 1):
            with tr.span("fourier.linearize_closed"):
                expansion = fourier.linearize_closed(shift_count, power)
            with tr.span("fourier.single_harmonic"):
                fourier.single_harmonic(expansion, mode)
            counts["fourier.linearize_closed.calls"] += 1
        found = 0
        for m in range(1, max_n + 1):
            for n in range(m + 2, max_n + 1, 2):
                with tr.span("discovery.derive_constant"):
                    derived = discovery.derive_constant(shift_count, m, n, (m + n) // 2, mode)
                counts["discovery.pairs"] += 1
                found += derived is not None
        counts["discovery.found"] += found
        if found != len(results):
            problem = problem or f"derive_constant found {found}, discover {len(results)} for {op.label}"
        return problem
