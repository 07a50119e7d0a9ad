"""Record the golden CLI outputs that tests/test_goldens.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_goldens.py

It writes the seeded dense-Picard input documents and the branch documents
to ``tests/fixtures/golden/inputs/`` and, for every case, the exit code,
stdout and stderr of ``snckit --emit both`` to ``tests/fixtures/golden/``.
The cases are every fixture document under every command, plus each
dense-Picard and branch document under ``kh-report`` and ``k-report``.  The
branch documents reach the report branches that the other documents leave
alone: a torus with a root-of-unity part, an undetermined torus over a
general field (on RP^2 and on the Moore space with H_1 = Z/3), an opaque
degree-2 differential, a supplied ker(beta), a divisible Picard part of
dimension 2, a Du Bois table with b^{0,n-1} > 0 on a report that is only a
bound, torsion on level n-3, the source of the last NS map, so that
ker(NS) has relations of its own, and, at n = 4 on the Moore space with
H_1 = Z/5, a KH value and coker(alpha) whose extension of Z/5 by Z is left
unresolved.  Record goldens only from a commit whose output is known to be
right: the test treats them as the truth.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden"
INPUTS = GOLDEN / "inputs"
FIXTURE_DOCUMENTS = ("parallel_edges", "sphere4", "triangle_cycle")
DENSE_RANKS = tuple(6 + 2 * (seed % 6) for seed in range(12))
DENSE_COMMANDS = ("kh-report", "k-report")
BRANCH_DOCUMENTS = ("rp2-closed", "rp2-general", "four-cycle", "ker-beta",
                    "coker-pic0-2", "dubois-bound", "torsion-source", "moore3-general",
                    "moore5-n4")


def cases() -> list[tuple[str, Path, str]]:
    """(case name, input document, command) for every golden case."""
    from snckit.cli import COMMANDS

    out = [(f"{name}.{command}", FIXTURES / f"{name}.json", command)
           for name in FIXTURE_DOCUMENTS for command in COMMANDS]
    for seed in range(len(DENSE_RANKS)):
        name = f"dense-picard-{seed:02d}"
        out.extend((f"{name}.{command}", INPUTS / f"{name}.json", command)
                   for command in DENSE_COMMANDS)
    for name in BRANCH_DOCUMENTS:
        out.extend((f"{name}.{command}", INPUTS / f"{name}.json", command)
                   for command in DENSE_COMMANDS)
    return out


def branch_documents() -> dict[str, dict]:
    """The branch documents by name (see the module docstring)."""
    from helpers import (boundary_matrix, dense_picard_document, divisor_json,
                         four_cycle, moore_divisor, rp2_divisor, triangle_cycle,
                         with_source_torsion)
    from snckit import validate_snc

    def document(d, levels, maps, coker_pic0_dim=0, dubois_b=0,
                 field_mode="algebraically_closed", ker_beta=None) -> dict:
        picard = {"levels": [{"p": p, "ns_rank": r, "ns_torsion": [], "pic0_dim": 0}
                             for p, r in levels],
                  "ns_maps": maps, "coker_pic0_dim": coker_pic0_dim}
        if ker_beta is not None:
            picard["ker_beta"] = ker_beta
        return {"version": "1", "divisor": divisor_json(d), "picard": picard,
                "dubois": {"entries": [{"p": 0, "q": d.n - 1, "b": dubois_b}],
                           "isolated": True},
                "field_mode": field_mode}

    rp2 = rp2_divisor()
    # NS of the components pulled back to the double curves: the coboundary.
    coboundary = boundary_matrix(validate_snc(rp2).chain_complex(), 1).transpose()
    rp2_levels, rp2_maps = [(0, 6), (1, 15)], [coboundary.to_lists()]
    triangle_levels = [(0, 3), (1, 3)]
    triangle_maps = [[[1, -1, 0], [1, 0, -1], [0, 1, -1]]]
    # The lower map lands in ker(main) = Z e_1 with index 2, so Gamma = Z/2,
    # and coker(NS) = Z/2 is the corner that the opaque d_2 may cut down.
    cycle_levels, cycle_maps = [(0, 1), (1, 2), (2, 1)], [[[2], [0]], [[0, 2]]]
    # ker(NS) = Z^4 + Z/2 + Z/6 surjects onto a Gamma with torsion.
    rng = random.Random(5)
    torsion_source = with_source_torsion(dense_picard_document(rng, 8), [2, 6], rng)
    return {
        "rp2-closed": document(rp2, rp2_levels, rp2_maps),
        "rp2-general": document(rp2, rp2_levels, rp2_maps, field_mode="general"),
        "four-cycle": document(four_cycle(), cycle_levels, cycle_maps),
        "ker-beta": document(triangle_cycle(), triangle_levels, triangle_maps,
                             coker_pic0_dim=1, field_mode="general",
                             ker_beta={"free_rank": 1, "torsion": [3]}),
        "coker-pic0-2": document(triangle_cycle(), triangle_levels, triangle_maps,
                                 coker_pic0_dim=2),
        "dubois-bound": document(four_cycle(), cycle_levels, cycle_maps,
                                 coker_pic0_dim=1, dubois_b=4),
        "torsion-source": torsion_source,
        "moore3-general": document(moore_divisor(3), [(0, 1), (1, 1)], [[[0]]],
                                   field_mode="general"),
        "moore5-n4": document(moore_divisor(5, 4), [(0, 1), (1, 1), (2, 1)],
                              [[[0]], [[0]]]),
    }


def input_documents() -> dict[str, str]:
    """File name and text of every generated input document, as written."""
    sys.path.insert(0, str(HERE))
    from helpers import dense_picard_document

    docs = {f"dense-picard-{seed:02d}.json":
            dense_picard_document(random.Random(seed), rank)
            for seed, rank in enumerate(DENSE_RANKS)}
    docs.update((f"{name}.json", doc) for name, doc in branch_documents().items())
    return {name: json.dumps(doc, separators=(",", ":")) + "\n"
            for name, doc in docs.items()}


def run_case(path: Path, command: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    from snckit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--input", str(path), "--command", command, "--emit", "both"])
    return rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def main() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, text in input_documents().items():
        (INPUTS / name).write_text(text, encoding="utf-8")
    codes = {}
    for name, path, command in cases():
        rc, out, err = run_case(path, command)
        codes[name] = rc
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
