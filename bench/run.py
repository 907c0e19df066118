"""trigident benchmark: one client, closed loop, every op through ``cli.run``.

Run from the repository root:

    python3 bench/run.py --workload verify-symbolic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, untraced and traced

A run builds one round of seeded ops (writing the ``.rid`` files and their
known answers under ``.bench_out/``), times the fresh-interpreter import of
``trigident.cli``, then repeats whole rounds in a single thread until
``--seconds`` have passed.  Every op's output is checked against an answer
that does not come from trigident.  The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics (per round)
from a traced replay of the same rounds with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import statements
from checks import Tally, check_discover, check_verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-symbolic", "verify-numeric", "discover-grid")
NUMERIC_TRIALS = 1000
SETUP_RUNS = 15
# latency_tail_ms is this percentile in every run, so that runs compare; a
# run goes on until it has MIN_OPS ops, which leaves at least 10 beyond it.
TAIL_PERCENTILE = 90
MIN_OPS = 100


@dataclass
class Op:
    label: str
    kind: str  # "symbolic", "numeric" or "discover"
    argv: list
    statement: statements.Statement | None = None
    path: Path | None = None
    chars: int = 0
    trials: int = 0
    op_seed: int = 0
    grid: tuple | None = None
    expected: str = ""

    def check(self, code, out, err):
        if self.kind == "discover":
            return check_discover(self.expected, code, out, err)
        return check_verify(self.statement, code, out, err)


class Trigident:
    """The package under test, imported from this checkout's ``src``."""

    def __init__(self):
        package = SRC / "trigident"
        if not (package / "cli.py").is_file():
            raise SystemExit(f"bench: no trigident sources at {package}")
        sys.path.insert(0, str(SRC))
        for module in ("cli", "dsl", "identities", "algebra", "fourier", "discovery"):
            setattr(self, module, importlib.import_module(f"trigident.{module}"))
        if Path(self.cli.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"bench: imported trigident from {self.cli.__file__}, not {package}")

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            return None, out.getvalue(), traceback.format_exc()
        return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# machine-speed reference
#
# A shared host's speed can swing by 1.5-1.9x within seconds, which would
# swamp any change worth detecting.  So between timed calls the benchmark
# times a fixed exact-arithmetic kernel that does not use trigident, and
# reports each call's time scaled to a machine on which that kernel takes
# KERNEL_REF_S, using the mean of the kernel runs just before and just after
# the call.  (Those two track the call's speed better than a median over
# more neighbours.)  Raw figures are printed on the summary line.

KERNEL_REF_S = 0.010
_KERNEL_POLY = {(i, j): Fraction(i + 2 * j + 1, i + 3) for i in range(9) for j in range(9 - i)}


def kernel_seconds() -> float:
    """Wall time of squaring a 45-term sparse Fraction polynomial plus a big binomial sum.

    The mix of small-Fraction dict work and big-integer work follows the mix
    of the three workloads.
    """
    start = perf_counter()
    product = {}
    for (i1, j1), c1 in _KERNEL_POLY.items():
        for (i2, j2), c2 in _KERNEL_POLY.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    sum((Fraction(math.comb(160, k), 2**k) for k in range(0, 160, 2)), Fraction(0))
    return perf_counter() - start


def at_reference_speed(times: list, kernels: list) -> list:
    """Scale times[i] by the kernel runs kernels[i] (before) and kernels[i + 1] (after)."""
    return [2 * t * KERNEL_REF_S / (kernels[i] + kernels[i + 1]) for i, t in enumerate(times)]


# ----------------------------------------------------------------------
# workloads


def build_ops(workload: str, seed: int) -> list[Op]:
    """One round of ops, in a seeded order, with inputs written to disk."""
    if workload == "discover-grid":
        ops = [
            Op(f"discover-N{n}-max{m}-{mode}", "discover",
               ["discover", "-N", str(n), "--max-n", str(m), "--mode", mode, "--emit", "json"],
               grid=(n, m, mode), expected=statements.reference_json(n, m, mode))
            for n, m, mode in statements.discover_grid(seed)
        ]
    else:
        numeric = workload == "verify-numeric"
        chosen = statements.true_versions(seed) if numeric else statements.generate(seed)
        workdir = OUT / f"{workload}-seed{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        manifest = {}
        ops = []
        for index, statement in enumerate(chosen):
            path = workdir / f"{statement.name}.rid"
            source = statement.source()
            path.write_text(source, encoding="utf-8")
            manifest[path.name] = {"holds": statement.holds, "constrained": statement.constrained}
            argv = ["verify", str(path)]
            op_seed = seed * 1000 + index
            if numeric:
                argv += ["--numeric", "--trials", str(NUMERIC_TRIALS), "--seed", str(op_seed)]
            ops.append(Op(statement.name, "numeric" if numeric else "symbolic", argv,
                          statement=statement, path=path, chars=len(source),
                          trials=NUMERIC_TRIALS if numeric else 0, op_seed=op_seed))
        (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    random.Random(seed).shuffle(ops)
    return ops


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing ``trigident.cli``.

    Returns (reference-speed time, raw time).  Bytecode is cached (under
    ``.bench_out/pycache``) by a first, untimed import, as it is for an
    installed command.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-c", "import trigident.cli"]
    subprocess.run(command, env=env, check=True, timeout=60)
    times, kernels = [], []
    for _ in range(SETUP_RUNS):
        kernels.append(kernel_seconds())
        start = perf_counter()
        subprocess.run(command, env=env, check=True)  # no timeout: it would poll
        times.append(perf_counter() - start)
    kernels.append(kernel_seconds())
    return statistics.median(at_reference_speed(times, kernels)), statistics.median(times)


# ----------------------------------------------------------------------
# runs


def run_untraced(tri: Trigident, ops: list[Op], seconds: float, tally: Tally):
    """Whole rounds until ``seconds`` have passed; returns latencies, kernel times, rounds."""
    latencies, kernels = [], []
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        for op in ops:
            kernels.append(kernel_seconds())
            _fresh(tri)
            begin = perf_counter()
            code, out, err = tri.call(op.argv)
            latencies.append(perf_counter() - begin)
            tally.record(op.check(code, out, err), op.label)
        rounds += 1
    kernels.append(kernel_seconds())
    return latencies, kernels, rounds


def run_traced(tri: Trigident, ops: list[Op], seconds: float, tally: Tally, spans_path: Path):
    from tracing import Replayer, Tracer

    tracer = Tracer()
    replayer = Replayer(tracer, tri)
    untraced = 0.0
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for op in ops:
            _fresh(tri)
            begin = perf_counter()
            code, out, err = tri.call(op.argv)
            untraced += perf_counter() - begin
            problem = op.check(code, out, err)
            _fresh(tri)
            tracer.op += 1
            tally.record(problem or replayer.replay(op), op.label)
        rounds += 1
    tracer.write(spans_path)
    return layer_metrics(tracer, rounds, untraced), rounds


def _fresh(tri: Trigident) -> None:
    # Each op starts as a fresh CLI process would: no cached brackets and no
    # garbage left over from the previous op.
    tri.identities.bracket_poly.cache_clear()
    gc.collect()


# ----------------------------------------------------------------------
# metrics

LAYER_METRICS = {
    "cli.run.busy_s": "s", "cli.overhead_s": "s",
    "dsl.load_statement.calls": "count", "dsl.load_statement.busy_s": "s", "dsl.chars_in": "count",
    "identities.bracket_poly.calls": "count", "identities.bracket_poly.busy_s": "s",
    "identities.bracket_poly.terms_out": "count",
    "identities.reduce_difference.busy_s": "s", "identities.reduce_difference.terms_out": "count",
    "identities.verify.busy_s": "s", "identities.witness.busy_s": "s",
    "identities.expr_value.calls": "count", "identities.expr_value.busy_s": "s",
    "identities.expr_value.result_bits": "bits", "identities.spot_check.busy_s": "s",
    "algebra.mul.calls": "count", "algebra.mul.busy_s": "s", "algebra.mul.term_pairs": "count",
    "algebra.mul.terms_out": "count", "algebra.mul.pairs_per_s": "1/s",
    "algebra.pow.busy_s": "s", "algebra.addsub.busy_s": "s",
    "algebra.substitute_clear.calls": "count", "algebra.substitute_clear.busy_s": "s",
    "algebra.substitute_clear.terms_in": "count", "algebra.substitute_clear.terms_out": "count",
    "fourier.linearize_closed.calls": "count", "fourier.linearize_closed.busy_s": "s",
    "fourier.single_harmonic.busy_s": "s",
    "discovery.discover.busy_s": "s", "discovery.derive_constant.busy_s": "s",
    "discovery.pairs": "count", "discovery.found": "count", "discovery.hit_ratio": "ratio",
    "cli.self_s": "s", "dsl.self_s": "s", "identities.self_s": "s", "algebra.self_s": "s",
    "fourier.self_s": "s", "discovery.self_s": "s", "algebra.op_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer, rounds: int, untraced: float) -> dict:
    """Per-layer metrics per round; span times are busy time, counts are exact."""
    values = {name: 0.0 for name in LAYER_METRICS}
    for name, seconds in tracer.busy().items():
        if f"{name}.busy_s" in values:
            values[f"{name}.busy_s"] = seconds
    for layer, seconds in tracer.layer_self_time().items():
        if f"{layer}.self_s" in values:
            values[f"{layer}.self_s"] = seconds
    for name, total in tracer.counts.items():
        values[name] = total
    for name in values:
        values[name] /= rounds
    for name in LAYER_METRICS:
        if LAYER_METRICS[name] == "count":
            values[name] = int(round(values[name]))
    values["discovery.hit_ratio"] = _ratio(values["discovery.found"], values["discovery.pairs"])
    values["algebra.mul.pairs_per_s"] = _ratio(values["algebra.mul.term_pairs"], values["algebra.mul.busy_s"])
    values["algebra.op_share"] = _ratio(values["algebra.self_s"], values["cli.run.busy_s"])
    values["trace.overhead_ratio"] = _ratio(tracer.busy()["bench.op"], untraced)
    return values


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(raw: list, kernels: list, setup: tuple) -> tuple[dict, str]:
    latencies = sorted(at_reference_speed(raw, kernels))
    rank = math.ceil(len(latencies) * TAIL_PERCENTILE / 100)  # nearest-rank percentile
    tail_value, beyond = latencies[rank - 1], len(latencies) - rank
    values = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail_value * 1000.0, "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (
        f"latency_tail_ms is p{TAIL_PERCENTILE} of {len(latencies)} ops, {beyond} beyond it; "
        f"raw: ops_per_s={len(raw) / sum(raw):.4g} latency_p50_ms={statistics.median(raw) * 1000:.4g} "
        f"setup_s={setup[1]:.4g} kernel_ms={statistics.median(kernels) * 1000:.4g}"
    )
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, note


# ----------------------------------------------------------------------
# entry points


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    tri = Trigident()
    OUT.mkdir(exist_ok=True)
    ops = build_ops(workload, seed)
    tally = Tally()
    if traced:
        values, rounds = run_traced(tri, ops, seconds, tally, OUT / f"spans-{workload}-seed{seed}.jsonl")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        note = f"per-layer metrics are per round of {len(ops)} ops"
    else:
        setup = setup_seconds()
        _fresh(tri)
        tri.call(ops[0].argv)  # warm-up: first-call costs are not an op's cost
        latencies, kernels, rounds = run_untraced(tri, ops, seconds, tally)
        metrics, note = end_to_end(latencies, kernels, setup)
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload}: seed={seed} rounds={rounds} attempted={tally.attempted} "
          f"failed={tally.failed} error_ratio={tally.error_ratio:.6g}; {note}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            result = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = result.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(result.stderr)
            if result.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"{workload} --trace {trace}: FAILED (exit {result.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
