"""Command-line front end: JSON documents in, deterministic reports out.

The input document carries a divisor block (always), and optionally Picard
data, a Du Bois table, and a field mode.  Every command emits a plain-text
report, a JSON report mirroring it, or both; output depends only on the
document contents, never on the environment.

Exit codes: 0 success, 1 any validation or input failure, 2 a command was
asked for a block the document does not have, 3 an internal invariant broke.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Sequence

from .abgroup import FgAbGroup, Hom
from .khasm import (
    ALGEBRAICALLY_CLOSED,
    GENERAL_FIELD,
    KhReport,
    PicardInput,
    PicardLevel,
    kh_report,
)
from .intmat import IntMatrix
from .nk import DuBoisTable, k_report
from .snc import (
    DimensionBoundError,
    SncDivisor,
    build_dual_complex,
    find_bad_intersections,
    resolve_to_simplicial,
    validate_snc,
)
from .chaincx import cohomology

SUPPORTED_VERSION = "1"
MAX_BLOWUPS = 10000
COMMANDS = ("validate", "dual-complex", "cohomology", "check-simplicial",
            "resolve", "kh-report", "k-report")


class SchemaError(ValueError):
    """Input document deviates from the schema; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownIdError(SchemaError):
    pass


class VersionError(ValueError):
    pass


class MissingBlockError(Exception):
    """The requested command needs a block the document does not carry."""

    def __init__(self, block: str, command: str):
        self.block = block
        super().__init__(f"command {command!r} needs the {block!r} block")


@dataclass(frozen=True)
class InputDocument:
    version: str
    divisor: SncDivisor
    picard: PicardInput | None
    dubois: DuBoisTable | None
    field_mode: str


# --------------------------------------------------------------------------
# parsing


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key {key!r}")


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _parse_divisor(block: Any, path: str) -> SncDivisor:
    obj = _as_dict(block, path)
    _require_keys(obj, {"n", "components", "strata"}, {"n", "components"}, path)
    n = _as_int(obj["n"], f"{path}.n", minimum=1)
    comps = [_as_str(c, f"{path}.components[{i}]")
             for i, c in enumerate(_as_list(obj["components"], f"{path}.components"))]
    if not comps:
        raise SchemaError(f"{path}.components", "divisor needs at least one component")
    if len(set(comps)) != len(comps):
        raise SchemaError(f"{path}.components", "component ids must be unique")

    strata_spec: list[tuple[str, list[str], dict[str, str]]] = []
    stratum_ids: set[str] = set()
    for gi, group in enumerate(_as_list(obj.get("strata", []), f"{path}.strata")):
        gpath = f"{path}.strata[{gi}]"
        gobj = _as_dict(group, gpath)
        _require_keys(gobj, {"subset", "components"}, {"subset", "components"}, gpath)
        subset_idx = []
        for si, idx in enumerate(_as_list(gobj["subset"], f"{gpath}.subset")):
            idx = _as_int(idx, f"{gpath}.subset[{si}]")
            if not 0 <= idx < len(comps):
                raise UnknownIdError(f"{gpath}.subset[{si}]",
                                     f"component index {idx} out of range")
            subset_idx.append(idx)
        if len(set(subset_idx)) != len(subset_idx):
            raise SchemaError(f"{gpath}.subset", "repeated component index")
        if len(subset_idx) > n:
            raise DimensionBoundError(
                f"{gpath}.subset: {len(subset_idx)} components exceeds n = {n}")
        subset_ids = [comps[i] for i in subset_idx]

        for ci, rec in enumerate(_as_list(gobj["components"], f"{gpath}.components")):
            cpath = f"{gpath}.components[{ci}]"
            robj = _as_dict(rec, cpath)
            _require_keys(robj, {"id", "parents"}, {"id"}, cpath)
            sid = _as_str(robj["id"], f"{cpath}.id")
            stratum_ids.add(sid)
            parents: dict[str, str] = {}
            for key, val in _as_dict(robj.get("parents", {}), f"{cpath}.parents").items():
                try:
                    didx = int(key)
                except ValueError:
                    didx = None
                # only canonical decimal keys, as divisor_json writes them
                if didx is None or key != str(didx):
                    raise SchemaError(f"{cpath}.parents",
                                      f"key {key!r} is not a component index")
                if not 0 <= didx < len(comps):
                    raise UnknownIdError(f"{cpath}.parents",
                                         f"component index {didx} out of range")
                if didx not in subset_idx:
                    raise SchemaError(f"{cpath}.parents",
                                      f"component index {didx} is not in the subset")
                parents[comps[didx]] = _as_str(val, f"{cpath}.parents[{key!r}]")
            strata_spec.append((sid, subset_ids, parents))

    # Referenced parent ids must resolve to declared stratum ids.
    for gi, (sid, _, parents) in enumerate(strata_spec):
        for dropped, pid in parents.items():
            if pid not in stratum_ids:
                raise UnknownIdError(f"{path}.strata", f"stratum {sid!r} names unknown "
                                     f"parent {pid!r} for dropped component {dropped!r}")

    return SncDivisor.build(n, comps, strata_spec)


def _parse_group(obj: Any, path: str) -> FgAbGroup:
    gobj = _as_dict(obj, path)
    _require_keys(gobj, {"free_rank", "torsion"}, {"free_rank"}, path)
    rank = _as_int(gobj["free_rank"], f"{path}.free_rank", minimum=0)
    torsion = [_as_int(t, f"{path}.torsion[{i}]", minimum=2)
               for i, t in enumerate(_as_list(gobj.get("torsion", []), f"{path}.torsion"))]
    try:
        return FgAbGroup(rank, tuple(torsion))
    except ValueError as e:
        raise SchemaError(f"{path}.torsion", str(e))


def _parse_picard(block: Any, n: int, path: str) -> PicardInput:
    if n < 3:
        # The report reads level n-3, which is negative below n = 3, and no
        # document can give a level p < 0.
        raise SchemaError(path, f"Picard data needs n >= 3, the divisor has n = {n}")
    obj = _as_dict(block, path)
    _require_keys(obj, {"levels", "ns_maps", "coker_pic0_dim", "ker_beta"},
                  {"levels", "ns_maps", "coker_pic0_dim"}, path)
    levels = []
    for li, lv in enumerate(_as_list(obj["levels"], f"{path}.levels")):
        lpath = f"{path}.levels[{li}]"
        lobj = _as_dict(lv, lpath)
        _require_keys(lobj, {"p", "ns_rank", "ns_torsion", "pic0_dim"},
                      {"p", "ns_rank"}, lpath)
        p = _as_int(lobj["p"], f"{lpath}.p", minimum=0)
        ns = _parse_group({"free_rank": lobj["ns_rank"],
                           "torsion": lobj.get("ns_torsion", [])}, lpath)
        dim = _as_int(lobj.get("pic0_dim", 0), f"{lpath}.pic0_dim", minimum=0)
        levels.append(PicardLevel(p, ns, dim))
    levels.sort(key=lambda lv: lv.p)

    raw_maps = _as_list(obj["ns_maps"], f"{path}.ns_maps")
    if len(raw_maps) != len(levels) - 1:
        raise SchemaError(f"{path}.ns_maps",
                          f"expected {len(levels) - 1} maps for {len(levels)} levels, "
                          f"got {len(raw_maps)}")
    maps = []
    for mi, rows in enumerate(raw_maps):
        mpath = f"{path}.ns_maps[{mi}]"
        rows = _as_list(rows, mpath)
        matrix_rows = []
        for ri, row in enumerate(rows):
            matrix_rows.append([_as_int(x, f"{mpath}[{ri}][{ci}]")
                                for ci, x in enumerate(_as_list(row, f"{mpath}[{ri}]"))])
        source, target = levels[mi].ns, levels[mi + 1].ns
        try:
            matrix = IntMatrix(matrix_rows, ncols=source.ngens)
            maps.append(Hom(source, target, matrix))
        except ValueError as e:
            raise SchemaError(mpath, str(e))

    ker_beta = None
    if "ker_beta" in obj:
        ker_beta = _parse_group(obj["ker_beta"], f"{path}.ker_beta")
    coker_dim = _as_int(obj["coker_pic0_dim"], f"{path}.coker_pic0_dim", minimum=0)
    try:
        return PicardInput(n, tuple(levels), tuple(maps), coker_dim, ker_beta)
    except ValueError as e:
        raise SchemaError(path, str(e))


def _parse_dubois(block: Any, path: str) -> DuBoisTable:
    obj = _as_dict(block, path)
    _require_keys(obj, {"entries", "isolated"}, {"entries"}, path)
    entries: dict[tuple[int, int], int] = {}
    for ei, rec in enumerate(_as_list(obj["entries"], f"{path}.entries")):
        epath = f"{path}.entries[{ei}]"
        robj = _as_dict(rec, epath)
        _require_keys(robj, {"p", "q", "b"}, {"p", "q", "b"}, epath)
        key = (_as_int(robj["p"], f"{epath}.p", minimum=0),
               _as_int(robj["q"], f"{epath}.q", minimum=0))
        if key in entries:
            raise SchemaError(epath, f"duplicate entry for (p, q) = {key}")
        entries[key] = _as_int(robj["b"], f"{epath}.b", minimum=0)
    isolated = obj.get("isolated", True)
    if not isinstance(isolated, bool):
        raise SchemaError(f"{path}.isolated", "expected a boolean")
    return DuBoisTable(entries, isolated)


def parse_document(data: Any) -> InputDocument:
    """Check a decoded JSON document's shape and turn it into typed blocks.

    Types, keys, ids and the Picard level layout are checked here; the
    divisor's structure is checked by ``validate_snc`` where a command
    relies on it.
    """
    obj = _as_dict(data, "document")
    _require_keys(obj, {"version", "divisor", "picard", "dubois", "field_mode"},
                  {"version", "divisor"}, "document")
    version = str(obj["version"])
    if version != SUPPORTED_VERSION:
        raise VersionError(f"unsupported document version {version!r}; "
                           f"this build reads version {SUPPORTED_VERSION}")
    divisor = _parse_divisor(obj["divisor"], "divisor")

    field_mode = obj.get("field_mode", ALGEBRAICALLY_CLOSED)
    field_mode = _as_str(field_mode, "field_mode").replace("-", "_")
    if field_mode not in (ALGEBRAICALLY_CLOSED, GENERAL_FIELD):
        raise SchemaError("field_mode", f"expected 'algebraically_closed' or "
                          f"'general', got {field_mode!r}")

    picard = None
    if "picard" in obj:
        picard = _parse_picard(obj["picard"], divisor.n, "picard")
    dubois = None
    if "dubois" in obj:
        dubois = _parse_dubois(obj["dubois"], "dubois")
    return InputDocument(version, divisor, picard, dubois, field_mode)


def parse_input(path: str) -> InputDocument:
    """Read and decode an input file, then check it with ``parse_document``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_document(json.load(fh))
        except RecursionError:
            raise SchemaError("document", "nesting is too deep") from None


# --------------------------------------------------------------------------
# serialization


def group_json(g: FgAbGroup) -> dict:
    return {"str": str(g), "free_rank": g.free_rank, "torsion": list(g.torsion)}


def _report_json(x: Any) -> Any:
    """A report as JSON: one key per dataclass field, in field order."""
    if isinstance(x, FgAbGroup):
        return group_json(x)
    if isinstance(x, IntMatrix):
        return x.to_lists()
    if is_dataclass(x):
        return {f.name: _report_json(getattr(x, f.name)) for f in fields(x)}
    return x


def divisor_json(d: SncDivisor) -> dict:
    """Emit a divisor block that parses back to an equal divisor."""
    index = d.component_order()
    groups = d.by_subset()
    out = []
    for subset in sorted(groups, key=lambda sub: (len(sub), tuple(index[c] for c in sub))):
        members = []
        for s in groups[subset]:
            parents = {str(index[dropped]): pid
                       for dropped, pid in sorted(s.parents.items(),
                                                  key=lambda kv: index[kv[0]])}
            members.append({"id": s.id, "parents": parents})
        out.append({"subset": [index[c] for c in subset], "components": members})
    return {"n": d.n, "components": list(d.components), "strata": out}


def _picard_json(pi: PicardInput) -> dict:
    out: dict[str, Any] = {
        "levels": [{"p": lv.p, "ns_rank": lv.ns.free_rank,
                    "ns_torsion": list(lv.ns.torsion), "pic0_dim": lv.pic0_dim}
                   for lv in pi.levels],
        "ns_maps": [h.matrix.to_lists() for h in pi.maps],
        "coker_pic0_dim": pi.coker_pic0_dim,
    }
    if pi.ker_beta_known is not None:
        out["ker_beta"] = {"free_rank": pi.ker_beta_known.free_rank,
                           "torsion": list(pi.ker_beta_known.torsion)}
    return out


def _dubois_json(b: DuBoisTable) -> dict:
    return {"entries": [{"p": p, "q": q, "b": v}
                        for (p, q), v in sorted(b.entries.items())],
            "isolated": b.isolated}


def document_json(doc: InputDocument) -> dict:
    out: dict[str, Any] = {"version": doc.version, "divisor": divisor_json(doc.divisor)}
    if doc.picard is not None:
        out["picard"] = _picard_json(doc.picard)
    if doc.dubois is not None:
        out["dubois"] = _dubois_json(doc.dubois)
    out["field_mode"] = doc.field_mode
    return out


# --------------------------------------------------------------------------
# commands


def _cmd_validate(doc: InputDocument) -> tuple[str, dict]:
    validate_snc(doc.divisor)
    lines = [f"ok: divisor with {len(doc.divisor.components)} component(s) and "
             f"{len(doc.divisor.strata)} stratum component(s) is valid"]
    if doc.picard is not None:
        lines.append("picard block: present")
    if doc.dubois is not None:
        lines.append("dubois block: present")
    machine = {"command": "validate", "ok": True,
               "components": len(doc.divisor.components),
               "stratum_components": len(doc.divisor.strata),
               "picard": doc.picard is not None,
               "dubois": doc.dubois is not None}
    return "\n".join(lines), machine


def _cmd_dual_complex(doc: InputDocument) -> tuple[str, dict]:
    dc = build_dual_complex(doc.divisor)
    lines = []
    dims = []
    for dim, layer in enumerate(dc.cells):
        cells = sorted(layer, key=lambda c: c.id)
        lines.append(f"dimension {dim}: {len(cells)} cell(s): "
                     + ", ".join(c.id for c in cells))
        dims.append({"dimension": dim, "count": len(cells),
                     "cells": [{"id": c.id, "vertices": list(c.vertices)}
                               for c in cells]})
    machine = {"command": "dual-complex", "cells_by_dimension": dims}
    return "\n".join(lines), machine


def _cmd_cohomology(doc: InputDocument) -> tuple[str, dict]:
    cx = build_dual_complex(doc.divisor).chain_complex()
    lines = []
    groups = []
    for i in range(doc.divisor.n):
        g = cohomology(cx, i)
        lines.append(f"H^{i} = {g}")
        groups.append({"degree": i, **group_json(g)})
    machine = {"command": "cohomology", "groups": groups}
    return "\n".join(lines), machine


def _cmd_check_simplicial(doc: InputDocument) -> tuple[str, dict]:
    # the scan itself needs no valid divisor, but an invalid one exits 1
    validate_snc(doc.divisor)
    bad, simplicial = find_bad_intersections(doc.divisor)
    if simplicial:
        text = "simplicial"
    else:
        pieces = [f"{{{','.join(subset)}}} × {count}" for subset, count in bad]
        text = "not simplicial; bad: " + ", ".join(pieces)
    machine = {"command": "check-simplicial", "is_simplicial": simplicial,
               "bad": [{"subset": list(subset), "count": count}
                       for subset, count in bad]}
    return text, machine


def _cmd_resolve(doc: InputDocument, max_blowups: int) -> tuple[str, dict]:
    resolved, records = resolve_to_simplicial(doc.divisor, max_blowups=max_blowups)
    lines = [f"blowups: {len(records)}"]
    for rec in records:
        lines.append(f"blow up {rec.center} -> new component {rec.new_component} "
                     f"(bad count -{rec.bad_decrement})")
    lines.append("simplicial: true")
    new_doc = InputDocument(doc.version, resolved, doc.picard, doc.dubois,
                            doc.field_mode)
    machine = {
        "command": "resolve",
        "blowups": [{"center": r.center, "new_component": r.new_component,
                     "removed": list(r.removed), "added": list(r.added),
                     "bad_decrement": r.bad_decrement,
                     "point_blowup": r.point_blowup} for r in records],
        "is_simplicial": True,
        "document": document_json(new_doc),
    }
    return "\n".join(lines), machine


def _kh_text(r: KhReport) -> list[str]:
    u = r.units_cohomology
    m = r.one_motive
    lines = [
        f"kh report: n = {r.n}, field mode {r.field_mode}",
        f"KH_{1 - r.n - 1}(X) = H^{r.n - 1}(D(E),Z) = {r.kh_top}",
        f"H^{r.n - 3}(D(E),Z) = {r.h_n_minus_3}",
        f"H^{r.n - 2}(D(E),Z) = {r.h_n_minus_2}",
        "units cohomology:",
        f"  torus: {u.torus}",
        f"  coker(Pic^0) dimension: {u.coker_pic0_dim}",
        f"  ker(beta): {u.ker_beta}",
        f"  coker(NS): {u.coker_ns}",
        f"  coker(Pic): {u.coker_pic}",
        "one-motive:",
        f"  lattice L' = ker(NS): {m.lattice_lprime}",
        f"  lattice L = Gamma: {m.lattice_l}",
        f"  surjection L' -> L: {m.surjection_matrix.to_lists()}",
        f"  abelian dimension: {m.abelian_dim}",
        f"  map status: {m.map_status}",
        f"KH_{1 - r.n}(X):",
        f"  sub (units modulo d_2): {r.kh_value.sub}",
        f"  quotient H^{r.n - 2}(D(E),Z): {r.kh_value.quotient}",
        f"  value: {r.kh_value.total}",
        f"  split: {'yes' if r.kh_value.split else 'no'}",
        f"  finitely generated: {'yes' if r.kh_is_finitely_generated else 'no'}",
        "ker(alpha):",
        f"  ker(beta): {r.ker_alpha.ses.sub}",
        f"  im(d_2): {r.ker_alpha.ses.quotient}",
        f"  total: {r.ker_alpha.ses.total}",
        f"  standing bound ker(NS): {r.ker_alpha.ker_ns_bound}",
        "coker(alpha):",
        f"  sub coker(NS): {r.coker_alpha.sub}",
        f"  quotient H^{r.n - 2}(D(E),Z): {r.coker_alpha.quotient}",
        f"  total: {r.coker_alpha.total}",
        f"  split: {'yes' if r.coker_alpha.split else 'no'}",
        f"n3 exact: {'yes' if r.n3_exact else 'no'}",
        f"d_2 top differential known zero: {'yes' if r.d2_top_known_zero else 'no'}",
    ]
    return lines


def _cmd_kh_report(doc: InputDocument) -> tuple[str, dict]:
    if doc.picard is None:
        raise MissingBlockError("picard", "kh-report")
    report = kh_report(doc.divisor, doc.picard, doc.field_mode)
    machine = {"command": "kh-report", **_report_json(report)}
    return "\n".join(_kh_text(report)), machine


def _cmd_k_report(doc: InputDocument) -> tuple[str, dict]:
    if doc.picard is None:
        raise MissingBlockError("picard", "k-report")
    if doc.dubois is None:
        raise MissingBlockError("dubois", "k-report")
    kh = kh_report(doc.divisor, doc.picard, doc.field_mode)
    report = k_report(kh, doc.dubois)
    n = kh.n
    lines = _kh_text(kh)
    lines.extend([
        "nk layer:",
        f"  b^{{0,{n - 1}}} = {report.v_dim}",
        f"  NK_{1 - n}(U) = {report.nk_shape}",
        f"  K_{1 - n}(X) = " + (f"KH_{1 - n}(X) exactly" if report.k_equals_kh else
                                f"extension of KH_{1 - n}(X) by a "
                                f"{report.v_dim}-dim k-vector space"),
        f"  K_{2 - n}(X) -> KH_{2 - n}(X) surjective: "
        + ("yes" if report.surjectivity_note else "no"),
    ])
    machine = {"command": "k-report", **_report_json(report)}
    return "\n".join(lines), machine


_DISPATCH = {
    "validate": _cmd_validate,
    "dual-complex": _cmd_dual_complex,
    "cohomology": _cmd_cohomology,
    "check-simplicial": _cmd_check_simplicial,
    "kh-report": _cmd_kh_report,
    "k-report": _cmd_k_report,
}


def run(command: str, document: InputDocument,
        max_blowups: int = MAX_BLOWUPS) -> tuple[str, dict]:
    """Execute one command, returning (text report, machine report).

    ``max_blowups`` caps the resolution loop; only ``resolve`` runs it.
    """
    if command == "resolve":
        return _cmd_resolve(document, max_blowups)
    try:
        handler = _DISPATCH[command]
    except KeyError:
        raise ValueError(f"unknown command {command!r}; choose from {COMMANDS}")
    return handler(document)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="snckit",
        description="Reports on SNC divisor dual complexes and the finitely "
                    "generated parts of negative K-theory.")
    parser.add_argument("--input", required=True, help="path to a JSON document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--emit", choices=("json", "text", "both"), default="text")
    parser.add_argument("--max-blowups", type=int, default=MAX_BLOWUPS,
                        help="resolution loop iteration cap")
    args = parser.parse_args(argv)

    try:
        document = parse_input(args.input)
        text, machine = run(args.command, document, args.max_blowups)
    except MissingBlockError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - nothing should reach this
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    if args.emit in ("text", "both"):
        print(text)
    if args.emit in ("json", "both"):
        print(json.dumps(machine, ensure_ascii=False, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
