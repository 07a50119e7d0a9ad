"""Record the error corpus that tests/test_goldens.py replays byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/make_error_corpus.py

It writes ``tests/fixtures/error_corpus.json``: a list of cases, each a
document and, under one or more commands, the exit code, stderr and SHA-256
of stdout of ``snckit --emit both`` on it.  The documents come from three
sources:

- a derandomized draw of ``mutated_documents`` from tests/test_cli.py,
  under every command but ``cohomology``;
- one targeted fault for each type, key, minimum, surrogate and
  parent-key check of the parser (divisor, Picard and Du Bois blocks,
  document keys and field mode), and among them a repeated component id,
  subset indices out of range, a subset deeper than n and unknown parent
  ids, which ``validate_snc`` reports;
- divisors that break the rules of ``validate_snc``, by hand and by seeded
  random mutations of valid divisors, many with several faults at once, so
  that which error is raised first is pinned down too.

Documents are stored as JSON values.  A document nested too deeply to
store is stored with the placeholder string ``NEST`` and a ``nesting``
depth; the replay puts the brackets back.  An integer with more digits
than Python decodes by default is stored as the placeholder string
``OVERLONG``, which the replay turns into 10^(OVERLONG_DIGITS - 1).  The script records every case
under several string-hash seeds and keeps only the outcomes that agree.
Record the corpus only from a commit whose error text is known to be right:
the test treats it as the truth.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
CORPUS = FIXTURES / "error_corpus.json"
NEST = "\u0000nest\u0000"
NESTINGS = (100_000, 5000, 990)   # depths of mutated_documents stored as NEST
OVERLONG = "\u0000overlong\u0000"
OVERLONG_DIGITS = 5001
DRAWS = 160
RANDOM_FAULTS = 80
HASH_SEEDS = (1, 2, 3, 4)
ALL = ("validate", "dual-complex", "cohomology", "check-simplicial", "resolve",
       "kh-report", "k-report")


def load(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def document_text(case: dict) -> str:
    """The document text of a stored case, with its nesting and over-long
    integers put back."""
    depth = case.get("nesting", 0)
    text = json.dumps(case["document"])
    text = text.replace(json.dumps(OVERLONG), "1" + "0" * (OVERLONG_DIGITS - 1))
    return text.replace(json.dumps(NEST), "[" * depth + "]" * depth)


def run_text(text: str, command: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stderr and stdout digest of one in-process CLI run."""
    from snckit.cli import main

    path = workdir / "doc.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--input", str(path), "--command", command, "--emit", "both"])
    # the bytes a real stderr prints: it escapes what UTF-8 cannot encode
    stderr = err.getvalue().encode("utf-8", "backslashreplace").decode("utf-8")
    digest = hashlib.sha256(out.getvalue().encode("utf-8", "backslashreplace"))
    return rc, stderr, digest.hexdigest()


# ---------------------------------------------------------------------------
# edits on the committed fixture documents


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(path):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


DIV = ("divisor",)
G0 = DIV + ("strata", 0)
M0 = G0 + ("components", 0)
S4_TRIPLE = DIV + ("strata", 10, "components", 0)      # c012 on [0, 1, 2]
S4_QUAD = DIV + ("strata", 20, "components", 0)        # c0123 on [0, 1, 2, 3]
PIC = ("picard",)
L0 = PIC + ("levels", 0)
DUB = ("dubois",)
E0 = DUB + ("entries", 0)

# (name, fixture, command, edits): one check of the parser each, but for
# the component, subset range and depth and parent id faults, which reach
# validate_snc
PARSER_FAULTS = [
    ("document-not-an-object", None, "validate", []),
    ("document-unknown-key", "triangle_cycle", "validate", [_set(("extra",), 1)]),
    ("document-missing-version", "triangle_cycle", "validate", [_drop(("version",))]),
    ("document-missing-divisor", "triangle_cycle", "validate", [_drop(("divisor",))]),
    ("document-version-2", "triangle_cycle", "validate", [_set(("version",), "2")]),
    ("document-version-float", "triangle_cycle", "validate", [_set(("version",), 1.0)]),
    ("divisor-not-an-object", "triangle_cycle", "validate", [_set(DIV, [])]),
    ("divisor-unknown-key", "triangle_cycle", "validate", [_set(DIV + ("extra",), 1)]),
    ("divisor-missing-n", "triangle_cycle", "validate", [_drop(DIV + ("n",))]),
    ("divisor-missing-components", "triangle_cycle", "validate",
     [_drop(DIV + ("components",))]),
    ("n-string", "triangle_cycle", "validate", [_set(DIV + ("n",), "3")]),
    ("n-bool", "triangle_cycle", "validate", [_set(DIV + ("n",), True)]),
    ("n-float", "triangle_cycle", "validate", [_set(DIV + ("n",), 3.0)]),
    ("n-zero", "triangle_cycle", "validate", [_set(DIV + ("n",), 0)]),
    ("n-negative", "triangle_cycle", "validate", [_set(DIV + ("n",), -2)]),
    ("n-past-digit-limit", "triangle_cycle", "validate", [_set(DIV + ("n",), OVERLONG)]),
    ("components-not-an-array", "triangle_cycle", "validate",
     [_set(DIV + ("components",), "E1")]),
    ("component-int", "triangle_cycle", "validate", [_set(DIV + ("components", 1), 7)]),
    ("component-null", "triangle_cycle", "validate",
     [_set(DIV + ("components", 2), None)]),
    ("component-surrogate", "triangle_cycle", "validate",
     [_set(DIV + ("components", 1), "E\udc80")]),
    ("component-non-ascii", "triangle_cycle", "dual-complex",
     [_set(DIV + ("components", 1), "É2")]),
    ("components-empty", "triangle_cycle", "validate", [_set(DIV + ("components",), [])]),
    ("components-repeated", "triangle_cycle", "validate",
     [_set(DIV + ("components", 1), "E1")]),
    ("strata-not-an-array", "triangle_cycle", "validate", [_set(DIV + ("strata",), {})]),
    ("group-not-an-object", "triangle_cycle", "validate",
     [_set(DIV + ("strata", 1), 5)]),
    ("group-unknown-key", "triangle_cycle", "validate", [_set(G0 + ("extra",), 1)]),
    ("group-missing-subset", "triangle_cycle", "validate", [_drop(G0 + ("subset",))]),
    ("group-missing-components", "triangle_cycle", "validate",
     [_drop(G0 + ("components",))]),
    ("subset-not-an-array", "triangle_cycle", "validate", [_set(G0 + ("subset",), "01")]),
    ("subset-item-string", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), ["0", 1])]),
    ("subset-item-bool", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [0, True])]),
    ("subset-item-float", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [0, 1.0])]),
    ("subset-index-negative", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [-1, 1])]),
    ("subset-index-too-large", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [0, 3])]),
    ("subset-index-huge", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [0, 10 ** 30])]),
    ("subset-index-past-digit-limit", "triangle_cycle", "validate",
     [_set(G0 + ("subset",), [0, OVERLONG])]),
    ("subset-repeated", "triangle_cycle", "validate", [_set(G0 + ("subset",), [1, 1])]),
    ("subset-deeper-than-n", "triangle_cycle", "validate",
     [_set(DIV + ("n",), 2), _set(G0 + ("subset",), [0, 1, 2])]),
    ("members-not-an-array", "triangle_cycle", "validate",
     [_set(G0 + ("components",), {})]),
    ("member-not-an-object", "triangle_cycle", "validate", [_set(M0, "c12")]),
    ("member-unknown-key", "triangle_cycle", "validate", [_set(M0 + ("extra",), 1)]),
    ("member-missing-id", "triangle_cycle", "validate", [_drop(M0 + ("id",))]),
    ("member-without-parents", "triangle_cycle", "dual-complex",
     [_drop(M0 + ("parents",))]),
    ("id-int", "triangle_cycle", "validate", [_set(M0 + ("id",), 12)]),
    ("id-surrogate", "triangle_cycle", "validate", [_set(M0 + ("id",), "c\ud800")]),
    ("parents-not-an-object", "triangle_cycle", "validate",
     [_set(M0 + ("parents",), [])]),
    ("parent-key-leading-zero", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"00": "c12", "1": "c02", "2": "c01"})]),
    ("parent-key-word", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "x": "c02", "2": "c01"})]),
    ("parent-key-negative", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "1": "c02", "-1": "c01"})]),
    ("parent-key-out-of-range", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "1": "c02", "7": "c01"})]),
    ("parent-key-not-in-subset", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "3": "c02", "2": "c01"})]),
    ("parent-value-int", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "1": 2, "2": "c01"})]),
    ("parent-value-surrogate", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "1": "c\udfff", "2": "c01"})]),
    ("parent-unknown-id", "sphere4", "validate",
     [_set(S4_TRIPLE + ("parents",), {"0": "c12", "1": "ghost", "2": "c01"})]),
    ("parent-unknown-ids-in-two-strata", "sphere4", "validate",
     [_set(S4_QUAD + ("parents", "1"), "ghost1"),
      _set(S4_TRIPLE + ("parents", "2"), "ghost2")]),
    ("n-and-component-faults", "triangle_cycle", "validate",
     [_set(DIV + ("n",), "3"), _set(DIV + ("components", 0), 1)]),
    ("subset-and-member-faults", "triangle_cycle", "validate",
     [_set(DIV + ("strata", 2, "subset"), [0, 9]), _set(M0 + ("id",), 4)]),
    ("field-mode-int", "triangle_cycle", "validate", [_set(("field_mode",), 3)]),
    ("field-mode-surrogate", "triangle_cycle", "validate",
     [_set(("field_mode",), "\udc80")]),
    ("field-mode-unknown", "triangle_cycle", "validate", [_set(("field_mode",), "finite")]),
    ("picard-below-n-3", "parallel_edges", "validate",
     [_set(DIV + ("n",), 2), _set(("picard",), load("triangle_cycle")["picard"])]),
    ("picard-not-an-object", "triangle_cycle", "validate", [_set(PIC, [])]),
    ("picard-unknown-key", "triangle_cycle", "validate", [_set(PIC + ("extra",), 1)]),
    ("picard-missing-levels", "triangle_cycle", "validate", [_drop(PIC + ("levels",))]),
    ("picard-missing-ns-maps", "triangle_cycle", "validate", [_drop(PIC + ("ns_maps",))]),
    ("picard-missing-coker", "triangle_cycle", "validate",
     [_drop(PIC + ("coker_pic0_dim",))]),
    ("levels-not-an-array", "triangle_cycle", "validate", [_set(PIC + ("levels",), {})]),
    ("level-not-an-object", "triangle_cycle", "validate", [_set(L0, 0)]),
    ("level-unknown-key", "triangle_cycle", "validate", [_set(L0 + ("extra",), 1)]),
    ("level-missing-p", "triangle_cycle", "validate", [_drop(L0 + ("p",))]),
    ("level-missing-ns-rank", "triangle_cycle", "validate", [_drop(L0 + ("ns_rank",))]),
    ("level-p-string", "triangle_cycle", "validate", [_set(L0 + ("p",), "0")]),
    ("level-p-negative", "triangle_cycle", "validate", [_set(L0 + ("p",), -1)]),
    ("ns-rank-string", "triangle_cycle", "validate", [_set(L0 + ("ns_rank",), "3")]),
    ("ns-rank-negative", "triangle_cycle", "validate", [_set(L0 + ("ns_rank",), -3)]),
    ("ns-torsion-not-an-array", "triangle_cycle", "validate",
     [_set(L0 + ("ns_torsion",), 2)]),
    ("ns-torsion-one", "triangle_cycle", "validate", [_set(L0 + ("ns_torsion",), [1])]),
    ("ns-torsion-string", "triangle_cycle", "validate",
     [_set(L0 + ("ns_torsion",), ["2"])]),
    ("ns-torsion-not-a-chain", "triangle_cycle", "validate",
     [_set(L0 + ("ns_torsion",), [2, 3])]),
    ("pic0-dim-string", "triangle_cycle", "validate", [_set(L0 + ("pic0_dim",), "0")]),
    ("pic0-dim-negative", "triangle_cycle", "validate", [_set(L0 + ("pic0_dim",), -1)]),
    ("ns-maps-not-an-array", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps",), {})]),
    ("ns-maps-wrong-count", "triangle_cycle", "validate", [_set(PIC + ("ns_maps",), [])]),
    ("ns-map-not-an-array", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0), 0)]),
    ("ns-map-row-not-an-array", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0, 1), 0)]),
    ("ns-map-entry-string", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0, 1, 2), "1")]),
    ("ns-map-entry-float", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0, 2, 0), 0.5)]),
    ("ns-map-entry-bool", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0, 0, 0), False)]),
    ("ns-map-entry-past-digit-limit", "triangle_cycle", "kh-report",
     [_set(PIC + ("ns_maps", 0, 0, 0), OVERLONG)]),
    ("ns-map-ragged", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0, 1), [1, 0])]),
    ("ns-map-wrong-rows", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0), [[1, -1, 0], [1, 0, -1]])]),
    ("ns-map-wrong-width", "triangle_cycle", "validate",
     [_set(PIC + ("ns_maps", 0), [[1, -1], [1, 0], [0, 1]])]),
    ("ns-maps-do-not-compose", "sphere4", "kh-report",
     [_set(PIC + ("ns_maps", 0, 0, 0), 1), _set(PIC + ("ns_maps", 1, 0, 0), 1)]),
    ("levels-shifted", "sphere4", "kh-report",
     [_set(PIC + ("levels", i, "p"), i + 1) for i in range(3)]),
    ("ker-beta-not-an-object", "triangle_cycle", "validate",
     [_set(PIC + ("ker_beta",), [])]),
    ("ker-beta-unknown-key", "triangle_cycle", "validate",
     [_set(PIC + ("ker_beta",), {"free_rank": 1, "extra": 1})]),
    ("ker-beta-missing-free-rank", "triangle_cycle", "validate",
     [_set(PIC + ("ker_beta",), {"torsion": []})]),
    ("ker-beta-negative-rank", "triangle_cycle", "validate",
     [_set(PIC + ("ker_beta",), {"free_rank": -1})]),
    ("ker-beta-bad-torsion", "triangle_cycle", "validate",
     [_set(PIC + ("ker_beta",), {"free_rank": 0, "torsion": [4, 2]})]),
    ("coker-string", "triangle_cycle", "validate",
     [_set(PIC + ("coker_pic0_dim",), "0")]),
    ("coker-negative", "triangle_cycle", "validate", [_set(PIC + ("coker_pic0_dim",), -1)]),
    ("dubois-not-an-object", "triangle_cycle", "validate", [_set(DUB, [])]),
    ("dubois-unknown-key", "triangle_cycle", "validate", [_set(DUB + ("extra",), 1)]),
    ("dubois-missing-entries", "triangle_cycle", "validate", [_drop(DUB + ("entries",))]),
    ("entries-not-an-array", "triangle_cycle", "validate",
     [_set(DUB + ("entries",), {})]),
    ("entry-not-an-object", "triangle_cycle", "validate", [_set(E0, 1)]),
    ("entry-unknown-key", "triangle_cycle", "validate", [_set(E0 + ("extra",), 1)]),
    ("entry-missing-p", "triangle_cycle", "validate", [_drop(E0 + ("p",))]),
    ("entry-missing-q", "triangle_cycle", "validate", [_drop(E0 + ("q",))]),
    ("entry-missing-b", "triangle_cycle", "validate", [_drop(E0 + ("b",))]),
    ("entry-p-string", "triangle_cycle", "validate", [_set(E0 + ("p",), "0")]),
    ("entry-q-negative", "triangle_cycle", "validate", [_set(E0 + ("q",), -2)]),
    ("entry-b-negative", "triangle_cycle", "validate", [_set(E0 + ("b",), -1)]),
    ("entry-b-bool", "triangle_cycle", "validate", [_set(E0 + ("b",), True)]),
    ("entry-duplicate", "triangle_cycle", "validate",
     [_set(DUB + ("entries",), [{"p": 0, "q": 2, "b": 2}, {"p": 0, "q": 2, "b": 1}])]),
    ("isolated-string", "triangle_cycle", "validate", [_set(DUB + ("isolated",), "yes")]),
    ("entry-missing-for-k-report", "triangle_cycle", "k-report",
     [_set(E0 + ("q",), 1)]),
]


def _s4_twisted() -> dict:
    """sphere4 with a second edge and triangle on {1, 2}; the quadruple
    point on {0, 1, 2, 3} is attached to the second triangle, so dropping
    3 then 0 and 0 then 3 land on different edges."""
    doc = load("sphere4")
    strata = doc["divisor"]["strata"]
    strata[4]["components"].append({"id": "c12b", "parents": {}})
    strata[10]["components"].append(
        {"id": "c012b", "parents": {"0": "c12b", "1": "c02", "2": "c01"}})
    strata[20]["components"][0]["parents"]["3"] = "c012b"
    return doc


def _s4_without_edge_12() -> dict:
    """sphere4 with no stratum on {1, 2}; parents that named it name c13."""
    doc = load("sphere4")
    strata = doc["divisor"]["strata"]
    del strata[4]
    for group in strata:
        for member in group["components"]:
            for key, pid in member["parents"].items():
                if pid == "c12":
                    member["parents"][key] = "c13"
    return doc


# (name, fixture, edits): each breaks a rule of validate_snc
VALIDATE_FAULTS = [
    ("stratum-id-is-a-component-id", "triangle_cycle", [_set(M0 + ("id",), "E3")]),
    ("stratum-id-repeated", "triangle_cycle",
     [_set(DIV + ("strata", 2, "components", 0, "id"), "c12")]),
    ("subset-of-one", "triangle_cycle", [_set(G0 + ("subset",), [0])]),
    ("subset-empty", "triangle_cycle", [_set(G0 + ("subset",), [])]),
    ("depth-two-with-parents", "triangle_cycle",
     [_set(M0 + ("parents",), {"0": "c13"})]),
    ("triple-missing-a-parent", "sphere4", [_drop(S4_TRIPLE + ("parents", "1"))]),
    ("triple-with-no-parents", "sphere4", [_set(S4_TRIPLE + ("parents",), {})]),
    ("parent-on-the-wrong-facet", "sphere4", [_set(S4_TRIPLE + ("parents", "0"), "c13")]),
    ("parent-of-the-wrong-depth", "sphere4",
     [_set(S4_TRIPLE + ("parents", "0"), "c013")]),
    ("parent-is-itself", "sphere4", [_set(S4_TRIPLE + ("parents", "0"), "c012")]),
    ("quad-parent-on-the-wrong-facet", "sphere4",
     [_set(S4_QUAD + ("parents", "2"), "c012")]),
    ("late-duplicate-beats-early-subset-fault", "sphere4",
     [_set(G0 + ("subset",), [0]),
      _set(DIV + ("strata", 24, "components", 0, "id"), "c01")]),
    ("early-parent-fault-beats-late-subset-fault", "sphere4",
     [_set(S4_TRIPLE + ("parents", "0"), "c13"), _set(DIV + ("strata", 9, "subset"), [4])]),
    ("early-subset-fault-beats-late-parent-fault", "sphere4",
     [_set(DIV + ("strata", 3, "subset"), [4]), _set(S4_QUAD + ("parents", "0"), "c13")]),
    ("parent-fault-beats-grandparent-fault", "sphere4",
     [_set(S4_QUAD + ("parents", "3"), "c013"),
      _set(DIV + ("strata", 24, "components", 0, "parents", "1"), "c023")]),
    # the quadruple points at n = 3, with Picard data laid out for n = 3
    ("deeper-than-n", "sphere4",
     [_set(DIV + ("n",), 3), _set(PIC, load("triangle_cycle")["picard"])]),
]


def _validate_fault_documents() -> list[tuple[str, dict]]:
    out = []
    for name, fixture, edits in VALIDATE_FAULTS:
        doc = load(fixture)
        for edit in edits:
            edit(doc)
        out.append((name, doc))
    out.append(("grandparents-disagree", _s4_twisted()))
    out.append(("facet-without-a-stratum", _s4_without_edge_12()))
    shuffled = _s4_twisted()
    random.Random(5).shuffle(shuffled["divisor"]["strata"])
    out.append(("grandparents-disagree-shuffled", shuffled))
    return out


def _random_fault_documents() -> list[tuple[str, dict]]:
    """Valid divisors, strata shuffled, with one to three rule faults each.

    Every fault keeps the document acceptable to the parser (parent keys
    in the subset), so the first error comes from ``validate_snc``, but
    faults that undo each other or change nothing leave a valid divisor.
    Of the 64 documents, 47 fail in ``validate_snc`` and 17 are valid.
    """
    sys.path.insert(0, str(HERE))
    from helpers import divisor_json, random_divisor, simplex_divisor, sphere4

    rng = random.Random(11)
    out = []
    for k in range(RANDOM_FAULTS):
        d = sphere4() if k % 4 == 0 else (
            simplex_divisor(5, ["a", "b", "c", "d", "e", "f"], 4) if k % 4 == 1
            else random_divisor(rng))
        doc = {"version": "1", "divisor": divisor_json(d)}
        div = doc["divisor"]
        members = [(g, m) for g in div["strata"] for m in g["components"]]
        ids = [m["id"] for _, m in members]
        if not members:
            continue
        for _ in range(rng.randint(1, 3)):
            group, member = rng.choice(members)
            kind = rng.choice(["parent", "parent", "drop-parent", "depth-two-parent",
                               "duplicate", "shrink", "clear-parents"])
            if kind == "parent" and member["parents"]:
                member["parents"][rng.choice(sorted(member["parents"]))] = rng.choice(ids)
            elif kind == "drop-parent" and member["parents"]:
                del member["parents"][rng.choice(sorted(member["parents"]))]
            elif kind == "depth-two-parent" and len(group["subset"]) == 2:
                member["parents"][str(group["subset"][0])] = rng.choice(ids)
            elif kind == "duplicate":
                member["id"] = rng.choice(ids + div["components"])
            elif kind == "shrink" and not member["parents"]:
                group["subset"] = group["subset"][:rng.randint(0, 1)]
            elif kind == "clear-parents":
                member["parents"] = {}
        rng.shuffle(div["strata"])
        out.append((f"random-{k:02d}", doc))
    return out


def _drawn_documents() -> list[tuple[str, str]]:
    """A derandomized draw of (document text, command) from the fuzz strategy."""
    sys.path.insert(0, str(HERE))
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from test_cli import HUGE, mutated_documents

    drawn: list[tuple[str, str]] = []

    @settings(max_examples=DRAWS, deadline=None, derandomize=True, database=None)
    @given(text=mutated_documents(HUGE),
           command=st.sampled_from([c for c in ALL if c != "cohomology"]))
    def collect(text, command):
        if (text, command) not in drawn:
            drawn.append((text, command))

    collect()
    return drawn


def _stored(text: str) -> dict:
    """A document, with its deep bracket run replaced by NEST."""
    depth = 0
    for d in NESTINGS:
        if "[" * d + "]" * d in text:
            depth = d
            text = text.replace("[" * d + "]" * d, json.dumps(NEST))
            break
    doc = json.loads(text)
    return {"document": doc, "nesting": depth} if depth else {"document": doc}


def cases() -> list[dict]:
    """Every corpus case (name, document, commands) without its outcomes."""
    out = []
    for i, (text, command) in enumerate(_drawn_documents()):
        out.append({"name": f"drawn-{i:03d}", **_stored(text), "commands": [command]})
    for name, fixture, command, edits in PARSER_FAULTS:
        doc = load(fixture) if fixture else []
        for edit in edits:
            edit(doc)
        out.append({"name": f"parse-{name}", "document": doc, "commands": [command]})
    for name, doc in _validate_fault_documents():
        out.append({"name": f"snc-{name}", "document": doc, "commands": list(ALL)})
    for k, (name, doc) in enumerate(_random_fault_documents()):
        # the random documents carry no Picard block
        out.append({"name": f"snc-{name}", "document": doc,
                    "commands": [ALL[k % 5]]})
    return out


def record() -> list[dict]:
    """Each case's outcomes under this interpreter, by command."""
    with tempfile.TemporaryDirectory() as tmp:
        return [{command: run_text(document_text(case), command, Path(tmp))
                 for command in case["commands"]} for case in cases()]


def main() -> None:
    # Record under several string-hash seeds and keep the cases that agree
    # in all: an outcome that depends on set order is not a fixed truth.
    outcomes = []
    for seed in HASH_SEEDS:
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, __file__, "--record"], env=env,
                              check=True, capture_output=True)
        outcomes.append(json.loads(done.stdout))
    corpus = []
    for case, *got in zip(cases(), *outcomes):
        runs = {command: dict(zip(("exit", "stderr", "stdout_sha256"), outcome))
                for command, outcome in got[0].items()
                if all(g[command] == outcome for g in got)}
        if runs:
            del case["commands"]
            corpus.append({**case, "runs": runs})
    lines = (json.dumps(case, separators=(",", ":")) for case in corpus)
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        print(json.dumps(record()))
    else:
        main()
