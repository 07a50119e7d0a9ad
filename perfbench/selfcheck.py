"""Check that the benchmark is deterministic, from outside.

Usage: python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (by default those listed in BENCHMARK.json) it makes three traced runs: two with the same seed and
one with the next seed.  The two same-seed runs must write identical
documents, print identical stdout for every document both ran, and
report identical counts (calls, entries, transform bits, blowup ratios,
output bytes); the other seed must write none of the same documents.
Each run itself checks that traced and untraced stdout agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import PER_LAYER

HERE = Path(__file__).resolve().parent
BENCHMARKED = [w["name"] for w in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
TIMED = ("self_s", "exponent", "overhead_share", "self_coverage_share")


def traced_run(workload: str, seed: int, seconds: float, details: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1", "--details", str(details)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"result": result, "details": json.loads(details.read_text(encoding="utf-8"))}


def compare(workload: str, a: dict, b: dict, other: dict) -> list[str]:
    problems = []
    for run in (a, b, other):
        if not run["result"]["correct"]:
            problems.append(f"seed {run['details']['seed']}: run not correct")
    docs_a = {d["id"]: d for d in a["details"]["documents"]}
    docs_b = {d["id"]: d for d in b["details"]["documents"]}
    for doc_id in sorted(docs_a.keys() & docs_b.keys()):
        for key in ("document_sha256", "stdout_sha256", "output_bytes"):
            if docs_a[doc_id][key] != docs_b[doc_id][key]:
                problems.append(f"{doc_id}: {key} differs between same-seed runs")
    counts = [name for name, _, _ in PER_LAYER if name.rpartition(".")[2] not in TIMED]
    for name in counts:
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"][name]["value"]
        if va != vb:
            problems.append(f"{name}: {va} then {vb} on the same seed")
    mine = {d["document_sha256"] for d in a["details"]["documents"]}
    theirs = {d["document_sha256"] for d in other["details"]["documents"]}
    if mine & theirs:
        problems.append(f"{len(mine & theirs)} documents shared with the next seed")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("workloads", nargs="*", default=BENCHMARKED)
    args = ap.parse_args()
    failed = False
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for workload in args.workloads:
            runs = [traced_run(workload, seed, args.seconds, Path(tmp) / f"{workload}-{k}.json")
                    for k, seed in enumerate((args.seed, args.seed, args.seed + 1))]
            problems = compare(workload, *runs)
            failed |= bool(problems)
            for p in problems:
                print(f"{workload}: {p}")
            print(f"{workload}: {'ok' if not problems else 'FAILED'} "
                  f"({len(runs[0]['details']['documents'])} documents per run)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
