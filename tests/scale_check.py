"""Scale smoke checks: the CLI on large generated documents, one step per name.

Run from anywhere, under any Python the package supports:

    python tests/scale_check.py [read-path] [resolve] [declared-rank]

With no name it runs all three steps, in that order.  Each step writes its
documents to $RUNNER_TEMP when that is set, and otherwise to a temporary
directory that it removes afterwards.  It runs ``python -m snckit.cli`` on
them as subprocesses, with the repository's ``src`` first on PYTHONPATH,
prints one line per run and raises AssertionError on a wrong answer, an
exit other than the one expected, or a run past its time limit.  The
documents and their expected answers come from ``perfbench/gen.py`` and
``perfbench/oracle.py``, which never call snckit.  It needs only the
standard library.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}


def _cli(path: str, command: str, emit: str, env: dict | None = None
         ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "snckit.cli", "--input", path,
                           "--command", command, "--emit", emit],
                          capture_output=True, env=env or ENV)


def read_path(tmp: str) -> None:
    """Four commands on 102,092 cells, and validate on a copy with one fault.

    The full 3-skeleton of the 39-simplex from gen.skeleton_case, strata
    canonical and then shuffled, run as a subprocess.  kh-report is checked
    by the benchmark oracle; every H^i that cohomology prints is checked
    against gen._skeleton_cohomology, a closed form that never calls
    snckit, so each boundary the sweep reads with clearing is checked at
    this size.  validate counts the strata and dual-complex lists the
    cells, both from the strata table; their counts are checked against
    the generator's.  Last, validate runs on a copy whose last stratum
    with parents names itself as its first parent: it must exit 1 with
    that stratum's error on stderr, which the check names only after
    walking every stratum before it.  On a 2-core host with Python 3.11
    each run took 0.93-2.71 s, so each must end within 6 s, which stops a
    read path, sweep or error walk that has turned superlinear.
    """
    read_limit = 6
    for shuffled in (False, True):
        case = gen.skeleton_case(random.Random(7), 4, 40, shuffled)
        path = os.path.join(tmp, f"skeleton-{shuffled}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh)
        for command in (case.command, "cohomology", "validate", "dual-complex"):
            start = time.perf_counter()
            done = _cli(path, command, "both")
            seconds = time.perf_counter() - start
            print(f"{command}, shuffled={shuffled}: {case.size['cells']} cells, "
                  f"exit {done.returncode}, {seconds:.2f} s")
            assert done.returncode == 0, done.stderr.decode()
            assert seconds < read_limit, seconds
            if command == case.command:
                assert oracle.check(command, done.stdout, case.expected) is None
                continue
            report = oracle.machine_report(done.stdout.decode("utf-8"))
            if command == "cohomology":
                got = {g["degree"]: g["str"] for g in report["groups"]}
                assert got == gen._skeleton_cohomology(40, 4, case.size["copies"]), got
            elif command == "validate":
                got = report["stratum_components"]
                assert got == case.size["cells"] - case.size["components"], got
            else:
                got = [layer["count"] for layer in report["cells_by_dimension"]]
                assert got == case.size["cells_by_dim"], got
        comps = case.doc["divisor"]["components"]
        group = next(g for g in reversed(case.doc["divisor"]["strata"]) if len(g["subset"]) > 2)
        bad = group["components"][-1]
        drop = next(iter(bad["parents"]))
        bad["parents"][drop] = bad["id"]
        facet = tuple(comps[q] for q in group["subset"] if q != int(drop))
        want = (f"error: stratum {bad['id']}: parent {bad['id']!r} for dropped "
                f"{comps[int(drop)]!r} is not a stratum on {facet}\n")
        path = os.path.join(tmp, f"skeleton-{shuffled}-bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh)
        start = time.perf_counter()
        done = _cli(path, "validate", "both")
        seconds = time.perf_counter() - start
        print(f"validate with a wrong parent, shuffled={shuffled}: {case.size['cells']} "
              f"cells, exit {done.returncode}, {seconds:.2f} s")
        assert (done.returncode, done.stderr.decode("utf-8")) == (1, want), done.stderr
        assert seconds < read_limit, seconds


def resolve(tmp: str) -> None:
    """5,678 blowups on 16,063 cells.

    gen.resolve_case with 60 components and 3,540 parallel curves beyond
    one per pair, run as a subprocess and checked by the benchmark oracle
    (about a second), then twice more under two string-hash seeds, whose
    output must be the same bytes: the blowups build and walk sets of ids.
    A resolve loop linear in its stars takes 0.90-1.43 s per run on a
    2-core host and one quadratic in the number of blowups took about
    15 s, so each of the three resolve runs must end within 4 s.  The JSON
    part, whose divisor block the CLI writes straight from the divisor,
    must be what this Python's json.dumps(indent=2) prints of it: a byte
    check of that writer at 24 MB (about two seconds).  The resolved
    document it holds is then read back: validate must count the block's
    members and check-simplicial find no bad intersection.  Last,
    cohomology runs on the input and on the resolved document.  Blowups
    keep the homotopy type of the dual complex, so both must print Z,
    Z^50 and Z^5492.  On the resolved document the original components
    are hubs; a sweep that pays for their length per pivot took 5.3-6.4 s
    on a 2-core host and one that pays for the entries it changes takes
    1.6-2.0 s, so the limit is 3.5 s.
    """
    resolve_limit = 4
    case = gen.resolve_case(random.Random(7), 60, 3540)
    path = os.path.join(tmp, "resolve-60.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case.doc, fh)
    start = time.perf_counter()
    done = _cli(path, case.command, "both")
    seconds = time.perf_counter() - start
    print(f"{case.size['cells']} cells, exit {done.returncode}, {seconds:.2f} s, "
          f"{len(done.stdout)} bytes of output")
    assert done.returncode == 0, done.stderr.decode()
    assert oracle.check(case.command, done.stdout, case.expected) is None
    assert seconds < resolve_limit, seconds
    for seed in ("1", "2"):
        start = time.perf_counter()
        again = _cli(path, case.command, "both", {**ENV, "PYTHONHASHSEED": seed})
        seconds = time.perf_counter() - start
        same = again.stdout == done.stdout
        print(f"PYTHONHASHSEED={seed}: exit {again.returncode}, "
              f"{seconds:.2f} s, same output: {same}")
        assert again.returncode == 0 and same, again.stderr.decode()
        assert seconds < resolve_limit, seconds
    lines = done.stdout.decode("utf-8").split("\n")
    part = "\n".join(lines[lines.index("{"):]).removesuffix("\n")
    start = time.perf_counter()
    same = part == json.dumps(json.loads(part), ensure_ascii=False, indent=2)
    print(f"JSON part, {len(part)} characters, printed as json.dumps prints it: "
          f"{same}, checked in {time.perf_counter() - start:.2f} s")
    assert same
    resolved = json.loads(part)["document"]
    members = sum(len(g["components"]) for g in resolved["divisor"]["strata"])
    path = os.path.join(tmp, "resolved-60.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh)
    for command in ("validate", "check-simplicial"):
        start = time.perf_counter()
        done = _cli(path, command, "json")
        print(f"{command} on the resolved document, exit {done.returncode}, "
              f"{time.perf_counter() - start:.2f} s")
        assert done.returncode == 0, done.stderr.decode()
        report = json.loads(done.stdout)
        if command == "validate":
            assert report["stratum_components"] == members, (report, members)
        else:
            assert report["is_simplicial"] is True, report["bad"][:5]
    for name in ("resolve-60.json", "resolved-60.json"):
        start = time.perf_counter()
        done = _cli(os.path.join(tmp, name), "cohomology", "json")
        seconds = time.perf_counter() - start
        print(f"cohomology on {name}, exit {done.returncode}, {seconds:.2f} s")
        assert done.returncode == 0, done.stderr.decode()
        got = {g["degree"]: g["str"] for g in json.loads(done.stdout)["groups"]}
        assert got == {0: "Z", 1: "Z^50", 2: "Z^5492"}, got
    assert seconds < 3.5, seconds


def declared_rank(tmp: str) -> None:
    """kh-report at ns_rank 1000: a torsion-free source, a torsion source, zero maps.

    The triangle divisor with ns_rank 1000 at level 0 and 0 at level 1, a
    document of a few hundred bytes whose report prints the 1000 x 1000
    identity as its surjection.  Work linear in that output takes a few
    seconds; work cubic in the declared rank took about a minute on this
    document, and the step's limit stops anything slower.  The second
    document adds ns_torsion [2] at level 0 and must print the 1001 x 1001
    identity; on it ``ns_analysis`` eliminates the relations of ker(NS)
    and carries their lift through Gamma's elimination.  The third is the
    triangle divisor at n = 4 with three levels of ns_rank 1000 joined by
    two 1000 x 1000 zero maps, a 6.0 MB document, and must print the
    1000 x 1000 identity.  ``PicardInput`` checks that the two maps compose
    to zero, and that product is the one scale case that goes through the
    sparse-row branch of ``IntMatrix.__matmul__``: with dot products alone
    it is cubic in the rank and took 10.6 s, against about 0.5 s for the
    whole run on a 2-core host.  So each run must finish within 4 s.
    """
    r = 1000
    pairs = ([0, 1], [0, 2], [1, 2])
    zero = [[0] * r for _ in range(r)]
    level = {"ns_rank": r, "ns_torsion": [], "pic0_dim": 0}
    cases = [("ns_torsion [], n = 3", 3, [{**level, "p": 0},
                                          {**level, "p": 1, "ns_rank": 0}], [[]], r),
             ("ns_torsion [2], n = 3", 3, [{**level, "p": 0, "ns_torsion": [2]},
                                           {**level, "p": 1, "ns_rank": 0}], [[]], r + 1),
             ("zero maps, n = 4", 4, [{**level, "p": p} for p in range(3)], [zero, zero], r)]
    for k, (name, n, levels, maps, gens) in enumerate(cases):
        doc = {"version": "1",
               "divisor": {"n": n, "components": ["E1", "E2", "E3"],
                           "strata": [{"subset": s, "components": [
                               {"id": "c" + "".join(str(i + 1) for i in s), "parents": {}}]}
                                      for s in pairs]},
               "picard": {"levels": levels, "ns_maps": maps, "coker_pic0_dim": 0}}
        path = os.path.join(tmp, f"declared-rank-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        done = _cli(path, "kh-report", "both")
        seconds = time.perf_counter() - start
        print(f"ns_rank {r}, {name}: {os.path.getsize(path)} bytes in, exit "
              f"{done.returncode}, {seconds:.2f} s, {len(done.stdout)} bytes of output")
        assert done.returncode == 0, done.stderr.decode()
        report = oracle.machine_report(done.stdout.decode("utf-8"))
        identity = [[int(i == j) for j in range(gens)] for i in range(gens)]
        assert report["one_motive"]["surjection_matrix"] == identity
        assert seconds < 4, seconds


STEPS = {"read-path": read_path, "resolve": resolve, "declared-rank": declared_rank}


def main(argv: list[str]) -> None:
    unknown = [name for name in argv if name not in STEPS]
    if unknown:
        sys.exit(f"unknown step {unknown[0]!r}; choose from {', '.join(STEPS)}")
    runner_temp = os.environ.get("RUNNER_TEMP")
    with tempfile.TemporaryDirectory() as scratch:
        for name in argv or list(STEPS):
            print(f"== {name}")
            STEPS[name](runner_temp or scratch)


if __name__ == "__main__":
    main(sys.argv[1:])
