"""snckit benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload skeleton-kh --seed 1 --seconds 30 --trace 0

It generates the workload's documents from the seed, writes them under
``.perfbench_work/``, times ``python3 -c 'import snckit.cli'`` in fresh
interpreters, then runs one worker process (``worker.py``) that feeds the
documents one after another to ``snckit.cli.main`` in a closed loop.
Every answer is checked by ``oracle.py`` afterwards.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``failed`` counts documents that exit nonzero
or print a wrong answer; ``correct`` is false when any document printed a
wrong answer, when a traced run printed other output than the untraced
one, or when a document repeats.  Per-document rows and the environment
go to ``.perfbench_out/`` (or ``--details PATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2          # every run finishes these; counts are taken over them
POOL_FACTOR = 2.5       # rounds generated, as a multiple of today's need
SETUP_SAMPLES = 11
CALIB_WINDOW = 5        # documents on each side whose calibrations set a document's host speed
CALIB_EVERY_S = 0.05    # measured time between two calibrations
TRACED_TIME_LIMIT_S = 20.0
WORKER_TIMEOUT_S = 150


class Workload:
    """A size ladder: one round holds one document per rung, in seeded order."""

    def __init__(self, name, rungs, make, size_key, round_seconds, time_limit_s):
        self.name = name
        self.rungs = rungs
        self.make = make
        self.size_key = size_key            # document size the exponents fit against
        self.round_seconds = round_seconds  # time of one round today on a fast host
        # A document still running after this many reference-host seconds
        # is stopped and counts as failed.
        self.time_limit_s = time_limit_s

    def round(self, seed: int, index: int) -> list[gen.Case]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        rungs = list(self.rungs)
        rng.shuffle(rungs)
        return [self.make(rng, rung) for rung in rungs]


WORKLOADS = {w.name: w for w in (
    # Every ladder is spread so that the median and the 90th percentile fall
    # inside one rung's spread of times, not in a gap between two rungs.
    Workload("skeleton-kh",
             [(n, m, shuffled) for n, m in ((3, 8), (3, 11), (3, 12), (3, 14), (4, 8),
                                            (4, 9), (4, 10), (4, 11), (5, 8), (5, 9))
              for shuffled in (False, True)] + [(3, 9, False), (3, 10, False), (4, 11, False)],
             lambda rng, r: gen.skeleton_case(rng, *r), "cells", 1.1, 5.0),
    # Middle NS ranks stop at 16: from rank 18 up, today's Smith transforms
    # blow up in some documents (see picard-blowup below).
    Workload("picard-dense",
             [(r, 3) for r in range(8, 17, 2) for _ in range(3)],
             lambda rng, r: gen.picard_case(rng, *r), "ns_rank_mid", 0.2, 2.0),
    Workload("resolve-parallel",
             [(m, extra * m * (m - 1) // 4) for m in (8, 10, 12, 14) for extra in (1, 2, 4)]
             + [(10, 67), (12, 49)],
             lambda rng, r: gen.resolve_case(rng, *r), "cells", 0.95, 5.0),
    # Not a benchmarked workload: it reproduces today's Smith-transform
    # blow-up, in which some documents run past the time limit or exit 1
    # because an entry of the printed surjection matrix has more than
    # Python's 4,300 digits for converting an int to str.
    Workload("picard-blowup",
             [(r, 3) for r in range(18, 29, 2)] + [(16, 8), (20, 16), (28, 32)],
             lambda rng, r: gen.picard_case(rng, *r), "ns_rank_mid", 1.0, 2.0),
)}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{span}.calls", "calls/doc", "lower") for span in (
        "intmat.smith_diagonal", "intmat.IntMatrix.transpose",
        "intmat.smith_normal_form", "intmat.unimodular_inverse",
        "chaincx.cohomology", "chaincx.homology", "snc.validate_snc",
        "snc.find_bad_intersections", "snc.blowup_stratum_component",
        "abgroup.hom_analyze", "abgroup.kernel_lattice", "abgroup.presentation",
        "abgroup.group_from_presentation", "khasm.kh_report")]
    + [(f"{span}.self_s", "s/doc", "lower") for span in (
        "intmat.smith_diagonal", "intmat.IntMatrix.transpose",
        "intmat.smith_normal_form", "intmat.unimodular_inverse",
        "intmat.IntMatrix.matmul", "intmat.solve_exact", "intmat.kernel_basis",
        "intmat.column_lattice_basis", "chaincx.cohomology", "chaincx.homology",
        "chaincx.dualize", "snc.validate_snc", "snc.build_dual_complex",
        "snc.DualComplex.chain_complex", "snc.find_bad_intersections",
        "snc.blowup_stratum_component", "snc.resolve_to_simplicial",
        "abgroup.hom_analyze", "abgroup.kernel_lattice", "abgroup.presentation",
        "khasm.kh_report", "nk.k_report", "cli.parse_input", "cli.parse_document",
        "cli.run", "cli.main")]
    + [("intmat.smith_diagonal.entries_in", "entries/doc", "lower"),
       ("intmat.smith_diagonal.nonzeros_in", "entries/doc", "lower"),
       ("intmat.smith_normal_form.max_transform_bits", "bits", "lower"),
       ("intmat.smith_normal_form.diagonal_only_share", "ratio", "lower"),
       ("chaincx.cohomology.distinct_share", "ratio", "higher"),
       ("snc.find_bad_per_blowup", "calls/blowup", "lower"),
       ("cli.output_bytes", "bytes/doc", "lower")]
    + [(f"{span}.exponent", "power", "lower") for span in (
        "intmat.smith_diagonal", "chaincx.cohomology", "intmat.smith_normal_form",
        "snc.resolve_to_simplicial")]
    + [("trace.overhead_share", "ratio", "lower"),
       ("trace.self_coverage_share", "ratio", "higher")]
)

END_TO_END = (
    ("doc_p50_s", "s"), ("doc_p90_s", "s"), ("docs_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
)


# --------------------------------------------------------------------------
# documents


def _doc_bytes(case: gen.Case) -> bytes:
    return json.dumps(case.doc, separators=(",", ":")).encode("utf-8")


def write_pool(workload: Workload, seed: int, rounds: int, work: Path):
    """Generate and write every round.

    Returns the plan's rounds and, per document id, what the checks need;
    the documents themselves are not kept in memory.
    """
    docs_dir, out_dir = work / "docs", work / "out"
    docs_dir.mkdir(parents=True)
    out_dir.mkdir()
    plan_rounds, cases, hashes = [], {}, []
    for r in range(rounds):
        items = []
        for k, case in enumerate(workload.round(seed, r)):
            doc_id = f"{r:03d}-{k:02d}"
            data = _doc_bytes(case)
            hashes.append(hashlib.sha256(data).hexdigest())
            path = docs_dir / f"{doc_id}.json"
            path.write_bytes(data)
            cases[doc_id] = {"command": case.command, "expected": case.expected,
                             "size": case.size, "sha256": hashes[-1]}
            items.append({"id": doc_id, "path": str(path), "command": case.command,
                          "out": str(out_dir / f"{doc_id}.txt")})
        plan_rounds.append(items)
    return plan_rounds, cases, hashes


# --------------------------------------------------------------------------
# measurement


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


SETUP_CODE = """\
import time
from calib import calibrate
cal = []
for _ in range(3):
    t = time.perf_counter(); calibrate(); cal.append(time.perf_counter() - t)
t = time.perf_counter()
import snckit.cli
took = time.perf_counter() - t
for _ in range(3):
    t = time.perf_counter(); calibrate(); cal.append(time.perf_counter() - t)
print(took, sorted(cal)[2])
"""


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds to ``import snckit.cli``, calibration seconds) in fresh
    interpreters, after one warm-up interpreter."""
    times = []
    for k in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=HERE,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:
            took, cal = proc.stdout.split()
            times.append((float(took), float(cal)))
    return times


def host_scaled(docs: list[dict]) -> list[float]:
    """Each document's time scaled to a host of reference speed.

    A document's host speed is the median of the latest calibrations
    before it and the ``CALIB_WINDOW`` documents on each side of it, in
    run order.
    """
    cal = [d["calib_s"] for d in docs]
    out = []
    for k, d in enumerate(docs):
        near = cal[max(0, k - CALIB_WINDOW):k + CALIB_WINDOW + 1]
        out.append(d["seconds"] * calib.speed_factor(statistics.median(near)))
    return out


def run_worker(plan: dict, work: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path)], cwd=HERE, env=_env())
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "snckit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "processor": platform.processor() or None,
            "platform": platform.platform(),
            "snckit_commit": commit,
            "snckit_source_sha256": digest.hexdigest()}


# --------------------------------------------------------------------------
# metrics


def _fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def end_to_end_metrics(times: list[float], completed: int,
                       setup: list[tuple[float, float]], peak_kib: int) -> dict:
    return {
        "doc_p50_s": statistics.median(times),
        "doc_p90_s": statistics.quantiles(times, n=10)[8],
        "docs_per_s": completed / sum(times),
        "setup_s": statistics.median(took * calib.speed_factor(cal) for took, cal in setup),
        "peak_rss_mib": peak_kib / 1024,
    }


def per_layer_metrics(result: dict, docs: list[dict], sizes: dict[str, float]) -> dict:
    spans = result["spans"]
    window = result["window"]
    wspans, wcounts, wdocs = window["spans"], window["counts"], window["documents"]
    ndocs = len(docs)
    speed = calib.speed_factor(statistics.median(d["calib_s"] for d in docs))

    def calls(name):
        return wspans.get(name, (0, 0, 0))[0]

    out = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(span) / wdocs
        elif kind == "self_s":
            out[name] = spans.get(span, (0, 0, 0))[1] / 1e9 / ndocs * speed
        elif kind == "exponent":
            out[name] = _fit_exponent([(sizes[d["id"]], d["span_total_s"].get(span, 0.0))
                                       for d in docs])
    snf = calls("intmat.smith_normal_form")
    coh = calls("chaincx.cohomology")
    blowups = calls("snc.blowup_stratum_component") + calls("snc.blowup_point_on_double_curve")
    both = [d for d in docs if None not in (d["rc"], d["traced_rc"])]
    untraced = sum(d["seconds"] for d in both)
    traced = sum(d["traced_seconds"] for d in docs)
    self_total = sum(s[1] for s in spans.values()) / 1e9
    out.update({
        "intmat.smith_diagonal.entries_in": wcounts["diag_entries_in"] / wdocs,
        "intmat.smith_diagonal.nonzeros_in": wcounts["diag_nonzeros_in"] / wdocs,
        "intmat.smith_normal_form.max_transform_bits": wcounts["max_transform_bits"],
        "intmat.smith_normal_form.diagonal_only_share":
            wcounts["snf_from_presentation"] / snf if snf else 0.0,
        "chaincx.cohomology.distinct_share":
            wcounts["cohomology_distinct"] / coh if coh else 0.0,
        "snc.find_bad_per_blowup":
            calls("snc.find_bad_intersections") / blowups if blowups else 0.0,
        "cli.output_bytes": sum(d["output_bytes"] for d in docs[:wdocs]) / wdocs,
        "trace.overhead_share": sum(d["traced_seconds"] for d in both) / untraced - 1.0,
        "trace.self_coverage_share": self_total / traced,
    })
    return out


def _units() -> dict:
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in PER_LAYER)
    return units


# --------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--details", help="where to write per-document rows "
                    "(default .perfbench_out/WORKLOAD-seedN-traceT.json)")
    args = ap.parse_args()

    if not (SRC / "snckit" / "cli.py").is_file():
        print(f"error: no snckit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        t_gen = time.perf_counter()
        rounds = max(MIN_ROUNDS, math.ceil(POOL_FACTOR * args.seconds
                                           / workload.round_seconds))
        plan_rounds, cases, hashes = write_pool(workload, args.seed, rounds, work)
        distinct = len(set(hashes)) == len(hashes)
        gen_s = time.perf_counter() - t_gen
        setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
        plan = {"src": str(SRC), "trace": bool(args.trace), "seconds": args.seconds,
                "min_rounds": MIN_ROUNDS, "calib_every_s": CALIB_EVERY_S,
                "time_limit_s": workload.time_limit_s,
                "traced_time_limit_s": TRACED_TIME_LIMIT_S,
                "rounds": plan_rounds}
        result = run_worker(plan, work)

        outputs = {i["id"]: Path(i["out"]) for r in plan_rounds for i in r}
        rows = []
        for d in result["documents"]:
            case = cases[d["id"]]
            stdout = outputs[d["id"]].read_bytes()
            error = problem = None
            if d["rc"] is None:
                error = f"still running at the {workload.time_limit_s} s time limit"
            elif d["rc"] != 0:
                error = f"exit code {d['rc']}: {d.get('stderr', '').strip()}"
            if (args.trace and None not in (d["rc"], d["traced_rc"])
                    and (d["traced_rc"] != d["rc"]
                         or d["traced_stdout_sha256"] != d["stdout_sha256"])):
                problem = "traced run differs from untraced run"
            elif error is None:
                problem = oracle.check(case["command"], stdout, case["expected"])
            size = dict(case["size"], output_bytes=d["output_bytes"])
            if case["command"] == "resolve":
                size["blowups"] = stdout.count(b"\nblow up ")
            rows.append({**d, "document_sha256": case["sha256"], "size": size,
                         "error": error, "problem": problem})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rows)
    failed = sum(1 for r in rows if r["error"] or r["problem"])
    wrong = sum(1 for r in rows if r["problem"])
    times = host_scaled(rows)
    for r, t in zip(rows, times):
        r["scaled_seconds"] = t
    if args.trace:
        sizes = {r["id"]: r["size"][workload.size_key] for r in rows}
        values = per_layer_metrics(result, rows, sizes)
    else:
        values = end_to_end_metrics(times, attempted - failed, setup,
                                    result["loop_peak_rss_kib"])
    units = _units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = wrong == 0 and distinct

    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "load_model": "closed loop, one process, one thread, one document at a time",
        "rounds_generated": rounds, "rounds_run": len({r["id"][:3] for r in rows}),
        "generate_s": gen_s, "setup_samples_import_calib_s": setup,
        "loop_peak_rss_kib": result["loop_peak_rss_kib"],
        "no_repeated_document": distinct, "wrong_answers": wrong,
        "fail_share": failed / attempted if attempted else 1.0,
        "metrics": metrics, "documents": rows,
    }
    if args.trace:
        details["window"] = result["window"]
        details["spans"] = result["spans"]
    path = Path(args.details) if args.details else (
        ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(details, indent=1), encoding="utf-8")

    for r in rows:
        if r["problem"]:
            print(f"WRONG {r['id']}: {r['problem']}")
        elif r["error"]:
            print(f"FAIL {r['id']}: {r['error'][:200]}")
    if not distinct:
        print("WRONG: a document repeats within the run")
    print(f"{workload.name}: {attempted} documents in {details['rounds_run']} rounds, "
          f"{failed} failed, {sum(r['seconds'] for r in rows):.2f} s measured; "
          f"details in {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
