"""Self-check of the benchmark's own machinery.  Run from the repository root:

    python3 bench/selfcheck.py

1. The correctness checks bite: a false statement labelled true, a discover
   listing with one product_factor off by one, and witnesses that do not
   falsify must each count as a failed op.
2. The independent discover reference reproduces the README's golden lines.
3. The exact counts repeat between two traced runs with the same seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import statements
from checks import Tally, check_discover, check_verify
from statements import RAM, Statement, br, mul, num, pow_

# Counts that must repeat exactly between runs with the same seed.
EXACT_COUNTS = (
    "algebra.mul.term_pairs",
    "identities.bracket_poly.terms_out",
    "identities.reduce_difference.terms_out",
    "discovery.pairs",
    "discovery.found",
)

GOLDEN = {
    (3, 11): [
        "m=3 n=7 p=5 harmonic=3 square_factor=21 product_factor=25",
        "m=6 n=10 p=8 harmonic=6 square_factor=45 product_factor=64",
    ],
    (5, 13): [
        "m=5 n=9 p=7 harmonic=5 square_factor=36 product_factor=49",
        "m=5 n=13 p=9 harmonic=5 square_factor=715 product_factor=1296",
        "m=7 n=11 p=9 harmonic=5 square_factor=385 product_factor=432",
        "m=9 n=13 p=11 harmonic=5 square_factor=52 product_factor=55",
    ],
}


def checks_bite(tri: run.Trigident) -> list[str]:
    problems = []
    workdir = run.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    wrong_lhs, wrong_rhs = RAM[0], mul(num(44), pow_(br("D", 8), 2))  # README's wrong.rid
    path = workdir / "wrong.rid"
    path.write_text(Statement("wrong", wrong_lhs, wrong_rhs, True, False).source(), encoding="utf-8")
    labelled_true = Statement("wrong", wrong_lhs, wrong_rhs, True, holds=True)
    labelled_false = Statement("wrong", wrong_lhs, wrong_rhs, True, holds=False)
    code, out, err = tri.call(["verify", str(path)])
    if check_verify(labelled_false, code, out, err) is not None:
        problems.append(f"the real falsification of wrong.rid was rejected: {out!r}")

    reference = statements.reference_relations(3, 11, "diff")
    off_by_one = [dict(r) for r in reference]
    off_by_one[-1]["Q"] += 1
    listing = json.dumps(off_by_one, separators=(",", ":")) + "\n"
    expected = statements.reference_json(3, 11, "diff")
    code_d, out_d, err_d = tri.call(["discover", "-N", "3", "--max-n", "11", "--emit", "json"])
    if check_discover(expected, code_d, out_d, err_d) is not None:
        problems.append(f"the real discover listing was rejected: {out_d!r}")

    bad_ops = {
        "false statement labelled true": check_verify(labelled_true, code, out, err),
        "product_factor off by one": check_discover(expected, 0, listing, ""),
        # At (1, 0, 0, 0) both triples are (0, -1, 1) up to order, so every D vanishes.
        "witness where both sides agree": check_verify(
            labelled_false, 1, "FALSIFIED wrong witness=(1,0,0,0)\n", ""),
        "witness off a*d = b*c": check_verify(
            labelled_false, 1, "FALSIFIED wrong witness=(1,1,1,2)\n", ""),
    }
    tally = Tally()
    for label, problem in bad_ops.items():
        tally.record(problem, f"selfcheck {label}")
        if problem is None:
            problems.append(f"checker accepted: {label}")
    if tally.failed != len(bad_ops) or tally.error_ratio != 1.0:
        problems.append(f"bad ops gave error_ratio {tally.error_ratio}, expected 1")
    return problems


def golden_lines() -> list[str]:
    problems = []
    for (shift_count, max_n), lines in GOLDEN.items():
        rendered = [
            f"m={r['m']} n={r['n']} p={r['p']} harmonic={r['harmonic']}"
            f" square_factor={r['P']} product_factor={r['Q']}"
            for r in statements.reference_relations(shift_count, max_n, "diff")
        ]
        if rendered != lines:
            problems.append(f"reference for -N {shift_count} --max-n {max_n}: {rendered}")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    command = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    result = subprocess.run(command, capture_output=True, text=True, check=True, timeout=170)
    outcome = json.loads(result.stdout.splitlines()[-1])
    if not outcome["correct"]:
        raise RuntimeError(f"traced {workload} run had {outcome['failed']} failed ops")
    return {name: outcome["metrics"][name]["value"] for name in EXACT_COUNTS}


def counts_repeat(seed: int = 2) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        try:
            first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        except RuntimeError as exc:
            problems.append(str(exc))
            continue
        print(f"selfcheck: {workload} seed {seed} exact counts {first}")
        if first != second:
            problems.append(f"{workload}: counts differ between runs: {first} vs {second}")
    return problems


def main() -> int:
    tri = run.Trigident()
    problems = checks_bite(tri) + golden_lines() + counts_repeat()
    for problem in problems:
        print(f"selfcheck FAIL: {problem}")
    print("selfcheck: all checks hold" if not problems else f"selfcheck: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
