"""kh-report and k-report do not depend on the bases of their input.

The paper's answers are invariants: KH_{-n}, KH_{1-n} and the lattices of
the 1-motive [L → G] up to isomorphism.  So a change of basis on each NS
level, NS_k ↦ P_{k+1}·NS_k·P_k^{-1} with P_k an automorphism of level k,
together with new names for the components and strata and a new order of
the strata groups, must print the same report.  The one field exempt is
``one_motive.surjection_matrix``: it is written on the bases of L' and Γ,
which follow the input's bases.
"""
import contextlib
import io
import json
import random
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_picard_document
from snckit import FgAbGroup, IntMatrix
from snckit.cli import main


def automorphism(rng: random.Random, g: FgAbGroup) -> tuple[IntMatrix, IntMatrix]:
    """A random automorphism P of g and its inverse, as matrices on g's
    canonical generators, from sign flips and moves e_i ↦ e_i + c·e_j.

    A move is well defined, and so is its inverse e_i ↦ e_i - c·e_j, when
    o_j divides c·o_i, o being the generators' orders and 0 a free one's.
    As matrices P ← E·P adds c times row i to row j, and P^{-1} ←
    P^{-1}·E^{-1} subtracts c times column j from column i.
    """
    orders = (0,) * g.free_rank + g.torsion
    k = g.ngens
    p = IntMatrix.identity(k).to_lists()
    inv = IntMatrix.identity(k).to_lists()
    for _ in range(rng.randint(k, 2 * k)):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j or (orders[j] == 0 and orders[i] != 0):
            p[i] = [-x for x in p[i]]
            for row in inv:
                row[i] = -row[i]
            continue
        step = 1 if orders[j] == 0 else orders[j] // gcd(orders[i], orders[j])
        c = step * rng.choice((-2, -1, 1, 2))
        p[j] = [x + c * y for x, y in zip(p[j], p[i])]
        for row in inv:
            row[i] -= c * row[j]
    return IntMatrix(p, ncols=k), IntMatrix(inv, ncols=k)


def change_bases(doc: dict, rng: random.Random) -> dict:
    """``doc`` with every NS map conjugated by random level automorphisms,
    the components and strata renamed, and the strata groups shuffled."""
    picard = doc["picard"]
    groups = [FgAbGroup(lv["ns_rank"], tuple(lv["ns_torsion"])) for lv in picard["levels"]]
    autos = [automorphism(rng, g) for g in groups]
    maps = [(autos[k + 1][0] @ IntMatrix(rows, ncols=groups[k].ngens) @ autos[k][1]).to_lists()
            for k, rows in enumerate(picard["ns_maps"])]

    block = doc["divisor"]
    ids = [c["id"] for group in block["strata"] for c in group["components"]]
    new_id = dict(zip(ids, (f"S{k}" for k in rng.sample(range(len(ids)), len(ids)))))
    strata = [{"subset": group["subset"],
               "components": [{"id": new_id[c["id"]],
                               "parents": {key: new_id[v] for key, v in c["parents"].items()}}
                              for c in group["components"]]}
              for group in block["strata"]]
    rng.shuffle(strata)
    names = [f"D{k}" for k in rng.sample(range(100), len(block["components"]))]
    return {**doc,
            "divisor": {**block, "components": names, "strata": strata},
            "picard": {**picard, "ns_maps": maps}}


def reports(path: Path, doc: dict) -> dict[str, dict]:
    """The JSON of kh-report and k-report on ``doc``, without the surjection."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = {}
    for command in ("kh-report", "k-report"):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(["--input", str(path), "--command", command, "--emit", "json"]) == 0
        report = json.loads(text.getvalue())
        kh = report["kh"] if command == "k-report" else report
        del kh["one_motive"]["surjection_matrix"]
        out[command] = report
    return out


level_groups = st.builds(
    lambda free, steps: FgAbGroup.from_factors(free, [2 ** a * 3 ** b for a, b in steps]),
    st.integers(0, 3), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([3, 4]), digits=st.integers(1, 2),
       groups=st.lists(level_groups, min_size=3, max_size=3), seed=st.integers(0, 2 ** 32))
def test_reports_do_not_depend_on_bases_names_or_strata_order(tmp_path_factory, n, digits,
                                                              groups, seed):
    rng = random.Random(seed)
    doc = random_picard_document(rng, n, digits, groups=groups[:n - 1])
    path = tmp_path_factory.getbasetemp() / "basis.json"
    assert reports(path, change_bases(doc, rng)) == reports(path, doc)
