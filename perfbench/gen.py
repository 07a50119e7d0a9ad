"""Seeded document generators for the three benchmark workloads.

Every generator returns a ``Case``: the JSON document, the CLI command to
run on it, the answer it must produce (known in closed form or by
construction, never computed with snckit) and its size.  Nothing here
imports snckit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import mul


@dataclass
class Case:
    doc: dict
    command: str
    expected: dict
    size: dict = field(default_factory=dict)


def _group_str(free: int, torsion: list[int]) -> str:
    """Canonical group text as snckit prints it: Z^r ⊕ Z/t1 ⊕ ..."""
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " ⊕ ".join(parts) if parts else "0"


def _components(rng: random.Random, m: int) -> list[str]:
    """Component ids with a random tag, so that no two documents coincide."""
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    return [f"{tag}{i}" for i in range(m)]


def _strata_json(groups: list[tuple[tuple[int, ...], list[dict]]]) -> list[dict]:
    return [{"subset": list(subset), "components": members} for subset, members in groups]


# --------------------------------------------------------------------------
# skeleton-kh: full (n-1)-skeleta of simplices, strata canonical or shuffled


def _skeleton_groups(m: int, n: int, copies: dict[tuple[int, ...], int],
                     ) -> list[tuple[tuple[int, ...], list[dict]]]:
    ids: dict[tuple[int, ...], str] = {}
    groups = []
    for size in range(2, n + 1):
        for subset in combinations(range(m), size):
            sid = "s" + "_".join(map(str, subset))
            ids[subset] = sid
            parents = {}
            if size >= 3:
                parents = {str(c): ids[tuple(x for x in subset if x != c)]
                           for c in subset}
            members = [{"id": sid, "parents": parents}]
            for k in range(copies.get(subset, 0)):
                members.append({"id": f"{sid}~{k}", "parents": dict(parents)})
            groups.append((subset, members))
    return groups


def _trivial_picard(n: int) -> dict:
    ps = [0, 1] if n == 3 else [n - 4, n - 3, n - 2]
    return {"levels": [{"p": p, "ns_rank": 1, "ns_torsion": [], "pic0_dim": 0}
                       for p in ps],
            "ns_maps": [[[0]] for _ in ps[1:]],
            "coker_pic0_dim": 0}


def _skeleton_cohomology(m: int, n: int, copies: int) -> dict[int, str]:
    """H^i of the full (n-1)-skeleton of the (m-1)-simplex plus parallel top cells.

    The skeleton is a wedge of C(m-1, n) spheres of dimension n-1, and each
    parallel copy of a top cell wedges on one more.
    """
    out = {0: "Z"}
    for i in range(1, n - 1):
        out[i] = "0"
    out[n - 1] = _group_str(comb(m - 1, n) + copies, [])
    return out


def skeleton_case(rng: random.Random, n: int, m: int, shuffled: bool) -> Case:
    tops = list(combinations(range(m), n))
    ncopies = rng.randint(0, 3)
    copies: dict[tuple[int, ...], int] = {}
    for subset in rng.sample(tops, ncopies):
        copies[subset] = copies.get(subset, 0) + 1
    groups = _skeleton_groups(m, n, copies)
    if shuffled:
        rng.shuffle(groups)
    doc = {
        "version": "1",
        "divisor": {"n": n, "components": _components(rng, m),
                    "strata": _strata_json(groups)},
        "picard": _trivial_picard(n),
    }
    h = _skeleton_cohomology(m, n, ncopies)
    expected = {"kh_top": h[n - 1], "h_n_minus_2": h[n - 2],
                "h_n_minus_3": h[n - 3],
                "ker_ns": "Z", "coker_ns": "Z", "gamma": "Z"}
    cells = [m] + [comb(m, k) + (ncopies if k == n else 0) for k in range(2, n + 1)]
    size = {"n": n, "components": m, "shuffled": shuffled, "copies": ncopies,
            "cells_by_dim": cells, "cells": sum(cells)}
    return Case(doc, "kh-report", expected, size)


# --------------------------------------------------------------------------
# picard-dense: a small fourfold divisor with dense NS maps over three levels


def _unimodular(rng: random.Random, k: int, ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular k×k matrix and its inverse, from elementary moves."""
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    if k < 2:
        return a, inv
    for _ in range(ops):
        i, j = rng.sample(range(k), 2)
        q = rng.choice((-1, 1))
        # a <- E a with E = I + q e_ij (row i += q row j);
        # inv <- inv E^-1 (column j -= q column i).
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= q * row[i]
    return a, inv


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _chain(rng: random.Random, count: int) -> list[int]:
    """A divisibility chain of ``count`` invariant factors: each factor is
    the one before it, times 2, 3, 5 or 7 with probability 0.15."""
    out, cur = [], 1
    for _ in range(count):
        if rng.random() < 0.15:
            cur *= rng.choice((2, 3, 5, 7))
        out.append(cur)
    return out


def _diag(rows: int, cols: int, entries: list[int]) -> list[list[int]]:
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(entries):
        d[i][i] = x
    return d


def picard_case(rng: random.Random, r1: int, moves: int) -> Case:
    """k-report on bd(Δ^4) with NS_0 -> NS_1 -> NS_2 built as P·D·Q.

    main = P·D·Q has rank k and invariant factors ``fac``, so
    ker(main) = Q^-1 · span(e_k..) and coker(main) reads off ``fac``.  The
    lower map is K·B with K the kernel basis Q^-1[:, k:], so it composes to
    zero with main, and Γ = ker(main)/im(lower) = coker(B).  Every
    unimodular factor is made of ``moves`` elementary moves per row, which
    sets the size of the maps' entries.
    """
    n, m = 4, 5
    kdim = r1 // 2                              # dimension of ker(main)
    k = r1 - kdim                               # rank of main
    r2 = k + 2
    r0 = (3 * kdim) // 4
    fac = _chain(rng, k)
    p_mat, _ = _unimodular(rng, r2, moves * r2)
    q_mat, q_inv = _unimodular(rng, r1, moves * r1)
    main = _matmul(_matmul(p_mat, _diag(r2, r1, fac)), q_mat)

    kb = r0 - 1                                 # rank of B
    bfac = _chain(rng, kb)
    p2, _ = _unimodular(rng, kdim, moves * kdim)
    q2, _ = _unimodular(rng, r0, moves * r0)
    b = _matmul(_matmul(p2, _diag(kdim, r0, bfac)), q2)
    kernel = [row[k:] for row in q_inv]
    lower = _matmul(kernel, b)

    groups = _skeleton_groups(m, n, {})
    rng.shuffle(groups)
    vdim = rng.randint(0, 3)
    doc = {
        "version": "1",
        "divisor": {"n": n, "components": _components(rng, m),
                    "strata": _strata_json(groups)},
        "picard": {
            "levels": [{"p": p, "ns_rank": r, "ns_torsion": [], "pic0_dim": 0}
                       for p, r in ((0, r0), (1, r1), (2, r2))],
            "ns_maps": [lower, main],
            "coker_pic0_dim": 0,
        },
        "dubois": {"entries": [{"p": 0, "q": n - 1, "b": vdim}], "isolated": True},
    }
    h = _skeleton_cohomology(m, n, 0)
    expected = {
        "kh_top": h[n - 1], "h_n_minus_2": h[n - 2], "h_n_minus_3": h[n - 3],
        "ker_ns": _group_str(kdim, []),
        "coker_ns": _group_str(r2 - k, [x for x in fac if x > 1]),
        "gamma": _group_str(kdim - kb, [x for x in bfac if x > 1]),
        "v_dim": vdim,
    }
    entry_bits = max(abs(x).bit_length() for rows in (lower, main)
                     for row in rows for x in row)
    size = {"ns_ranks": [r0, r1, r2], "ns_rank_mid": r1, "ker_dim": kdim, "main_rank": k,
            "moves_per_row": moves, "entry_bits": entry_bits, "cells": 30}
    return Case(doc, "k-report", expected, size)


# --------------------------------------------------------------------------
# resolve-parallel: threefolds whose components meet in parallel curves


def resolve_case(rng: random.Random, m: int, extra: int) -> Case:
    """Every pair of components meets in 1 to 5 parallel curves, ``extra``
    curves beyond one per pair in all; a quarter of the triangles carry
    triple points (a quarter of those two), each attached to random curve
    copies.  Only the placement is random, so a rung's work is steady."""
    pairs = list(combinations(range(m), 2))
    counts = dict.fromkeys(pairs, 1)
    for _ in range(extra):
        pair = rng.choice([p for p in pairs if counts[p] < 5])
        counts[pair] += 1
    curves = {pair: [f"c{pair[0]}_{pair[1]}_{k}" for k in range(counts[pair])]
              for pair in pairs}
    groups = [(pair, [{"id": cid, "parents": {}} for cid in ids])
              for pair, ids in curves.items()]
    tris = list(combinations(range(m), 3))
    chosen = sorted(rng.sample(tris, len(tris) // 4))
    doubled = set(rng.sample(chosen, len(chosen) // 4))
    triples = 0
    for tri in chosen:
        members = []
        for t in range(2 if tri in doubled else 1):
            parents = {str(c): rng.choice(curves[tuple(x for x in tri if x != c)])
                       for c in tri}
            members.append({"id": "t" + "_".join(map(str, tri)) + f"_{t}",
                            "parents": parents})
        groups.append((tri, members))
        triples += len(members)
    ncurves = len(pairs) + extra
    doc = {"version": "1",
           "divisor": {"n": 3, "components": _components(rng, m),
                       "strata": _strata_json(groups)}}
    euler = m - ncurves + triples
    size = {"components": m, "cells_by_dim": [m, ncurves, triples],
            "cells": m + ncurves + triples}
    return Case(doc, "resolve", {"euler": euler}, size)
