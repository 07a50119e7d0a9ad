"""Answer checks that never call snckit.

Each check reads the stdout of one ``--emit both`` run (text report, then
the JSON report) and compares it with what the generator built the
document to have.  A check returns None when the answer is right and a
short reason when it is not.
"""

from __future__ import annotations

import json
from itertools import combinations


def machine_report(stdout: str) -> dict:
    """The JSON report, which starts at the first line that is exactly '{'."""
    lines = stdout.split("\n")
    start = lines.index("{")
    return json.loads("\n".join(lines[start:]))


def _compare(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    return None


def _kh_fields(kh: dict) -> dict:
    return {"kh_top": kh["kh_top"]["str"],
            "h_n_minus_2": kh["h_n_minus_2"]["str"],
            "h_n_minus_3": kh["h_n_minus_3"]["str"],
            "ker_ns": kh["one_motive"]["lattice_lprime"]["str"],
            "gamma": kh["one_motive"]["lattice_l"]["str"],
            "coker_ns": kh["units_cohomology"]["coker_ns"]["str"]}


def check_kh_report(report: dict, expected: dict) -> str | None:
    return _compare(_kh_fields(report), expected)


def check_k_report(report: dict, expected: dict) -> str | None:
    got = _kh_fields(report["kh"])
    got["v_dim"] = report["v_dim"]
    return _compare(got, expected)


def check_resolve(report: dict, expected: dict) -> str | None:
    """Simplicial, closed under parents, and with the input's Euler characteristic.

    Simpliciality is checked by brute force: no two strata may share a
    vertex set.  Every parent must be a stratum on the facet that drops
    its key.
    """
    if report.get("is_simplicial") is not True:
        return "report does not claim a simplicial result"
    div = report["document"]["divisor"]
    comps = div["components"]
    if len(set(comps)) != len(comps):
        return "repeated component id"
    strata = {}
    vertex_sets = set()
    for group in div["strata"]:
        subset = tuple(group["subset"])
        for member in group["components"]:
            strata[member["id"]] = (subset, member["parents"])
            if subset in vertex_sets:
                return f"two strata on vertex set {subset}"
            vertex_sets.add(subset)
    for sid, (subset, parents) in strata.items():
        if len(subset) == 2:
            if parents:
                return f"{sid}: a double curve lists parents"
            continue
        if sorted(int(k) for k in parents) != sorted(subset):
            return f"{sid}: parents do not cover the subset"
        for key, pid in parents.items():
            facet = tuple(c for c in subset if c != int(key))
            if pid not in strata or strata[pid][0] != facet:
                return f"{sid}: parent {pid!r} is not a stratum on {facet}"
    for subset in vertex_sets:
        for size in range(2, len(subset)):
            for face in combinations(subset, size):
                if face not in vertex_sets:
                    return f"face {face} of {subset} is missing"
    euler = len(comps) + sum((-1) ** (len(s) - 1) for s, _ in strata.values())
    if euler != expected["euler"]:
        return f"Euler characteristic {euler}, expected {expected['euler']}"
    if len(report["blowups"]) == 0:
        return "no blowups on a divisor with parallel curves"
    return None


CHECKS = {"kh-report": check_kh_report, "k-report": check_k_report,
          "resolve": check_resolve}


def check(command: str, stdout: bytes, expected: dict) -> str | None:
    try:
        report = machine_report(stdout.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        return f"unreadable report: {e}"
    try:
        return CHECKS[command](report, expected)
    except (KeyError, TypeError, ValueError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
