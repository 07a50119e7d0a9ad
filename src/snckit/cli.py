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
import gc
import json
import sys
from functools import cache
from json.encoder import encode_basestring
from typing import Any, Callable, Collection, NamedTuple, NoReturn, Sequence

from .abgroup import FgAbGroup, Hom
from .khasm import (
    ALGEBRAICALLY_CLOSED,
    GENERAL_FIELD,
    GroupValue,
    KerAlphaDescriptor,
    KhReport,
    OneMotiveDescriptor,
    PicardInput,
    PicardLevel,
    SesDescriptor,
    TorusDescriptor,
    UnitsCohomology,
    kh_report,
)
from .intmat import IntMatrix
from .nk import DuBoisTable, k_report
from .snc import (
    MAX_BLOWUPS,
    BlowupRecord,
    SncDivisor,
    _StrataTable,
    find_bad_intersections,
    resolve_to_simplicial,
    validate_snc,
)
from .chaincx import cohomology

SUPPORTED_VERSION = "1"
# A document that fails to parse and nests arrays and objects deeper than
# this is reported as nested too deep.  The schema nests 7 deep; how deep
# the decoder and the error text can go depends on the Python and on the
# caller's stack, so past this depth the error names the nesting alone.
MAX_NESTING = 512
# ``cohomology`` prints H^i for every i < n while n is at most this; past
# it, the groups above the dual complex's dimension, all zero, print as one
# line and one JSON field, so the output is bounded by the divisor.
COHOMOLOGY_LISTED_DEGREES = 64
COMMANDS = ("validate", "dual-complex", "cohomology", "check-simplicial",
            "resolve", "kh-report", "k-report")


class SchemaError(ValueError):
    """Input document deviates from the schema; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class MissingBlockError(Exception):
    """The requested command needs a block the document does not carry."""

    def __init__(self, block: str, command: str):
        super().__init__(f"command {command!r} needs the {block!r} block")


class InputDocument(NamedTuple):
    version: str
    divisor: SncDivisor
    picard: PicardInput | None
    dubois: DuBoisTable | None
    field_mode: str


# --------------------------------------------------------------------------
# parsing


def _require_keys(obj: dict, allowed: Collection[str], required: tuple[str, ...],
                  path: str) -> None:
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
    # A JSON escape can decode to a lone surrogate, which has no UTF-8 form;
    # printing one would depend on how the environment encodes stdout.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(path, "string is not valid Unicode text "
                          "(it holds a lone surrogate)") from None
    return value


_MEMBER_KEYS = frozenset({"id", "parents"})


def _parse_divisor(block: Any, path: str) -> SncDivisor:
    # Per value, the loops test the common case inline and build a path
    # string only in the branch that may raise.  The strata go straight
    # into the divisor's table (see ``snc._StrataTable``), positions sorted
    # and unrepeated and parents keyed by a position of the subset, which
    # keeps ``SncDivisor``'s invariant.  Ids, ranges, depths and parent ids
    # are structure, which ``validate_snc`` checks.
    obj = _as_dict(block, path)
    _require_keys(obj, {"n", "components", "strata"}, ("n", "components"), path)
    n = _as_int(obj["n"], f"{path}.n", minimum=1)
    comps = tuple(_as_list(obj["components"], f"{path}.components"))
    for i, c in enumerate(comps):
        if type(c) is not str or not c.isascii():
            _as_str(c, f"{path}.components[{i}]")
    if not comps:
        raise SchemaError(f"{path}.components", "divisor needs at least one component")
    ncomps = len(comps)
    # only canonical decimal keys, as _divisor_text prints them
    key_index = {str(i): i for i in range(ncomps)}

    table = _StrataTable([], [], [])
    add_id, add_positions = table.ids.append, table.positions.append
    add_parents = table.parents.append
    for gi, group in enumerate(_as_list(obj.get("strata", []), f"{path}.strata")):
        if (type(group) is not dict or len(group) != 2 or "subset" not in group
                or "components" not in group):
            gpath = f"{path}.strata[{gi}]"
            _require_keys(_as_dict(group, gpath), {"subset", "components"},
                          ("subset", "components"), gpath)
        subset_idx = group["subset"]
        if type(subset_idx) is not list:
            _as_list(subset_idx, f"{path}.strata[{gi}].subset")
        for si, idx in enumerate(subset_idx):
            if type(idx) is not int:
                _as_int(idx, f"{path}.strata[{gi}].subset[{si}]")
        if len(set(subset_idx)) != len(subset_idx):
            raise SchemaError(f"{path}.strata[{gi}].subset", "repeated component index")
        positions = tuple(sorted(subset_idx))

        members = group["components"]
        if type(members) is not list:
            _as_list(members, f"{path}.strata[{gi}].components")
        for ci, rec in enumerate(members):
            if type(rec) is not dict or "id" not in rec or not _MEMBER_KEYS.issuperset(rec):
                cpath = f"{path}.strata[{gi}].components[{ci}]"
                _require_keys(_as_dict(rec, cpath), _MEMBER_KEYS, ("id",), cpath)
            sid = rec["id"]
            if type(sid) is not str or not sid.isascii():
                _as_str(sid, f"{path}.strata[{gi}].components[{ci}].id")
            raw = rec.get("parents", {})
            if type(raw) is not dict:
                _as_dict(raw, f"{path}.strata[{gi}].components[{ci}].parents")
            parents: dict[int, str] = {}
            if raw:
                for key, val in raw.items():
                    didx = key_index.get(key)
                    if didx is None or didx not in subset_idx:
                        _bad_parent_key(key, ncomps,
                                        f"{path}.strata[{gi}].components[{ci}].parents")
                    if type(val) is not str or not val.isascii():
                        _as_str(val, f"{path}.strata[{gi}].components[{ci}]"
                                     f".parents[{key!r}]")
                    parents[didx] = val
            add_id(sid)
            add_positions(positions)
            add_parents(parents)
    return SncDivisor(n, comps, table)


def _bad_parent_key(key: Any, ncomps: int, path: str) -> NoReturn:
    """Raise the error for a parent key that names no index of the subset."""
    try:
        didx = int(key)
    except ValueError:
        didx = None
    if didx is None or key != str(didx):
        raise SchemaError(path, f"key {key!r} is not a component index")
    if not 0 <= didx < ncomps:
        raise SchemaError(path, f"component index {didx} out of range")
    raise SchemaError(path, f"component index {didx} is not in the subset")


def _parse_group(obj: Any, path: str) -> FgAbGroup:
    gobj = _as_dict(obj, path)
    _require_keys(gobj, {"free_rank", "torsion"}, ("free_rank",), path)
    return _group_at(gobj, path, "free_rank", "torsion")


def _group_at(obj: dict, path: str, rank_key: str, torsion_key: str) -> FgAbGroup:
    """The group whose free rank and torsion orders sit at two keys of obj,
    the torsion optional; errors name the key that holds the bad value."""
    tpath = f"{path}.{torsion_key}"
    rank = _as_int(obj[rank_key], f"{path}.{rank_key}", minimum=0)
    torsion = [_as_int(t, f"{tpath}[{i}]", minimum=2)
               for i, t in enumerate(_as_list(obj.get(torsion_key, []), tpath))]
    try:
        return FgAbGroup(rank, tuple(torsion))
    except ValueError as e:
        raise SchemaError(tpath, str(e))


def _parse_picard(block: Any, n: int, path: str) -> PicardInput:
    if n < 3:
        # The report reads level n-3, which is negative below n = 3, and no
        # document can give a level p < 0.
        raise SchemaError(path, f"Picard data needs n >= 3, the divisor has n = {n}")
    obj = _as_dict(block, path)
    _require_keys(obj, {"levels", "ns_maps", "coker_pic0_dim", "ker_beta"},
                  ("levels", "ns_maps", "coker_pic0_dim"), path)
    levels = []
    for li, lv in enumerate(_as_list(obj["levels"], f"{path}.levels")):
        lpath = f"{path}.levels[{li}]"
        lobj = _as_dict(lv, lpath)
        _require_keys(lobj, {"p", "ns_rank", "ns_torsion", "pic0_dim"},
                      ("p", "ns_rank"), lpath)
        p = _as_int(lobj["p"], f"{lpath}.p", minimum=0)
        ns = _group_at(lobj, lpath, "ns_rank", "ns_torsion")
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
        for ri, row in enumerate(rows):
            if type(row) is not list:
                _as_list(row, f"{mpath}[{ri}]")
            # one builtin pass per row; the walk only names a bad entry
            if {*map(type, row)} != {int}:
                for ci, x in enumerate(row):
                    if type(x) is not int:
                        _as_int(x, f"{mpath}[{ri}][{ci}]")
        source, target = levels[mi].ns, levels[mi + 1].ns
        try:
            matrix = IntMatrix._of_ints(rows, source.ngens)
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
    _require_keys(obj, {"entries", "isolated"}, ("entries",), path)
    entries: dict[tuple[int, int], int] = {}
    for ei, rec in enumerate(_as_list(obj["entries"], f"{path}.entries")):
        epath = f"{path}.entries[{ei}]"
        robj = _as_dict(rec, epath)
        _require_keys(robj, {"p", "q", "b"}, ("p", "q", "b"), epath)
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

    Types, keys, the strata table's invariant and the Picard level layout
    are checked here; the divisor's structure (unique ids, subset ranges
    and depths, parents) is checked by ``validate_snc`` where a command
    relies on it.
    """
    obj = _as_dict(data, "document")
    _require_keys(obj, {"version", "divisor", "picard", "dubois", "field_mode"},
                  ("version", "divisor"), "document")
    version = str(obj["version"])
    if version != SUPPORTED_VERSION:
        raise ValueError(f"unsupported document version {version!r}; "
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
    """Read and decode an input file, then check it with ``parse_document``.

    A document too deep to decode, or one that fails the check and nests
    deeper than ``MAX_NESTING``, raises "nesting is too deep".  A document
    that passes nests no deeper than the schema, so only failures pay for
    the walk.  An integer with more digits than Python's limit on int
    conversion from a string allows fails the decode; the text is then
    decoded again with such integers marked, to name the first one's path.
    """
    data = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            data = json.loads(text, parse_int=_parse_int)
            # none is left when a repeated key dropped it
            found = _first_overlong(data, "" if isinstance(data, dict) else "document")
            if found is not None:
                where, digits = found
                raise SchemaError(where, f"integer has {len(digits.lstrip('-'))} digits, "
                                  "more than the limit of "
                                  f"{sys.get_int_max_str_digits()} for integer string "
                                  "conversion") from None
        return parse_document(data)
    except RecursionError:
        pass
    except Exception:
        if data is None or not _nests_deeper(data, MAX_NESTING):
            raise
    raise SchemaError("document", "nesting is too deep")


class _Overlong(str):
    """The digits of an integer that ``_parse_int`` could not convert."""


def _parse_int(text: str) -> int | _Overlong:
    """``int(text)``, or ``text`` marked when it is past the digit limit."""
    try:
        return int(text)
    except ValueError:
        return _Overlong(text)


def _first_overlong(value: Any, path: str) -> tuple[str, _Overlong] | None:
    """The path and digits of the first integer in ``value``, in document
    order, that ``_parse_int`` marked; ``path`` is the path of ``value``,
    "" for a document that is an object."""
    if type(value) is _Overlong:
        return path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        found = _first_overlong(v, f"{path}[{k}]" if type(k) is int
                                else f"{path}.{k}" if path else k)
        if found is not None:
            return found
    return None


def _nests_deeper(value: Any, limit: int) -> bool:
    """Whether arrays and objects nest more than ``limit`` deep in
    ``value``, walked one level at a time rather than by recursion."""
    level = [value]
    for _ in range(limit):
        level = [x for v in level if isinstance(v, (list, dict))
                 for x in (v.values() if isinstance(v, dict) else v)]
        if not level:
            return False
    return any(isinstance(v, (list, dict)) for v in level)


# --------------------------------------------------------------------------
# serialization


def _divisor_text(d: SncDivisor, nl: str) -> str:
    """The divisor block, as ``_json_text`` prints it at newline-and-indent
    ``nl``, written straight from the strata table of a divisor that
    passed ``validate_snc``; it parses back to an equal divisor.

    The rows print in (depth, positions, divisor order): their numbers
    are sorted by positions and then, stably, by depth, each sort keyed by
    a builtin lookup rather than a tuple per row.  A group opens where the
    positions tuple changes, and its members, each under ``"id"`` and
    ``"parents"``, follow in divisor order.  A parent is keyed by the
    decimal position of the component it drops, as in the table; a valid
    stratum of depth 3 or more names one per position, and they print in
    positions order.
    """
    enc = encode_basestring
    i1, i2, i3, i4, i5, i6 = [nl + "  " * k for k in range(1, 7)]
    size = len(d.components)
    # the text of each component position as a subset item and as a parent key
    item = [f"{i4}{i}" for i in range(size)]
    key = [f'{i6}"{i}": ' for i in range(size)]
    ids, positions, parents_of = d.table
    comps = f'[{",".join([i2 + enc(c) for c in d.components])}{i1}]' if d.components else "[]"
    out = [f'{{{i1}"n": {int.__repr__(d.n)},{i1}"components": {comps},{i1}"strata": [']
    append = out.append
    close = f"{i3}]{i2}}}"
    last = None
    order = sorted(range(len(ids)), key=positions.__getitem__)
    order.sort(key=list(map(len, positions)).__getitem__)
    for row in order:
        pos = positions[row]
        if pos != last:
            # a group opens; its first member takes no comma
            append(f'{"" if last is None else close + ","}{i2}{{{i3}"subset": '
                   f'[{",".join([item[i] for i in pos])}{i3}],{i3}"components": [')
            last, sep = pos, ""
        else:
            sep = ","
        parents = parents_of[row]
        if parents:
            listed = ",".join([key[i] + enc(parents[i]) for i in pos])
            append(f'{sep}{i4}{{{i5}"id": {enc(ids[row])},{i5}"parents": '
                   f'{{{listed}{i5}}}{i4}}}')
        else:
            append(f'{sep}{i4}{{{i5}"id": {enc(ids[row])},{i5}"parents": {{}}{i4}}}')
    del order  # free the row numbers before the join, the writer's memory peak
    append(f"{close}{i1}]{nl}}}" if ids else f"]{nl}}}")
    return "".join(out)


def _blowup_text(r: BlowupRecord, nl: str) -> str:
    """A blowup record as ``_json_text`` prints the dict of its fields, in
    field order, at newline-and-indent ``nl``; written straight from the
    record, as ``_divisor_text`` writes a divisor block."""
    enc = encode_basestring
    i1 = nl + "  "
    i2 = i1 + "  "
    removed = f"[{i2}{(',' + i2).join(map(enc, r.removed))}{i1}]" if r.removed else "[]"
    added = f"[{i2}{(',' + i2).join(map(enc, r.added))}{i1}]" if r.added else "[]"
    return (f'{{{i1}"center": {enc(r.center)},{i1}"new_component": '
            f'{enc(r.new_component)},{i1}"removed": {removed},{i1}"added": {added},'
            f'{i1}"bad_decrement": {int.__repr__(r.bad_decrement)},{i1}"point_blowup": '
            f'{"true" if r.point_blowup else "false"}{nl}}}')


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


def _json_text(x: Any, nl: str = "\n") -> str:
    """``json.dumps(x, ensure_ascii=False, indent=2)`` for a report value: a
    str, int, bool or None, or a value of a class ``_WRITERS`` holds.  Any
    other class, a subclass included, raises TypeError, as does a key that
    is not a str.  ``nl`` is the newline and indent of the line ``x`` ends
    on."""
    t = type(x)
    if t is str:
        return encode_basestring(x)
    if t is int:
        return int.__repr__(x)
    if x is True or x is False or x is None:
        return "true" if x is True else "false" if x is False else "null"
    writer = _WRITERS.get(t)
    if writer is None:
        raise TypeError(f"{t.__name__} is not a report value")
    return writer(x, nl)


def _bracketed(bra: str, items: list[str], ket: str, nl: str) -> str:
    if not items:
        return bra + ket
    inner = nl + "  "
    return f"{bra}{inner}{(',' + inner).join(items)}{nl}{ket}"


def _array_text(x: list | tuple, nl: str) -> str:
    inner = nl + "  "
    return _bracketed("[", [_json_text(v, inner) for v in x], "]", nl)


def _object_text(x: dict, nl: str) -> str:
    inner = nl + "  "
    # encode_basestring raises TypeError on a key that is not a str
    return _bracketed("{", [f"{encode_basestring(k)}: {_json_text(v, inner)}"
                            for k, v in x.items()], "}", nl)


# While ``main`` runs, the text of each distinct group, keyed by the group,
# and its JSON object at newline-and-indent ``nl``, keyed by ``(group,
# nl)``, for the text and JSON writers to share: a report holds a few
# distinct groups, each in many places.  ``main`` alone sets it and puts
# None back on the way out, so no memo outlives the call that filled it;
# an entry depends on its key alone, so a run can read no other's output.
_texts: dict[Any, str] | None = None


def _group_str(g: FgAbGroup) -> str:
    """``str(g)``, formatted once per distinct group while ``main`` runs."""
    memo = {} if _texts is None else _texts
    text = memo.get(g)
    if text is None:
        text = memo[g] = str(g)
    return text


def _group_text(g: FgAbGroup, nl: str) -> str:
    memo = {} if _texts is None else _texts
    text = memo.get((g, nl))
    if text is None:
        inner = nl + "  "
        text = memo[g, nl] = (
            f'{{{inner}"str": {encode_basestring(_group_str(g))},{inner}"free_rank": '
            f'{int.__repr__(g.free_rank)},{inner}"torsion": '
            f'{_array_text(g.torsion, inner)}{nl}}}')
    return text


def _matrix_text(m: IntMatrix, nl: str) -> str:
    """A matrix as the array of its rows, each row joined from its ints."""
    inner = nl + "  "
    entry = inner + "  "
    sep = "," + entry
    return _bracketed("[", [f"[{entry}{sep.join(map(int.__repr__, row))}{inner}]" if row
                            else "[]" for row in m.rows()], "]", nl)


# The text of each field name of a report record, as a key.
_KEYS = {cls: tuple(f"{encode_basestring(name)}: " for name in cls._fields)
         for cls in (KhReport, UnitsCohomology, OneMotiveDescriptor, TorusDescriptor,
                     KerAlphaDescriptor, SesDescriptor, GroupValue)}


def _record_text(x: Any, nl: str) -> str:
    inner = nl + "  "
    return _bracketed("{", [key + _json_text(v, inner) for key, v in zip(_KEYS[type(x)], x)],
                      "}", nl)


# The writer of each class a report value holds, by exact class.  A divisor
# prints as its block, a blowup record or report record as the object of its
# fields, a group as {"str", "free_rank", "torsion"} and a matrix as its rows.
_WRITERS: dict[type, Callable[[Any, str], str]] = {
    list: _array_text, tuple: _array_text, dict: _object_text, FgAbGroup: _group_text,
    IntMatrix: _matrix_text, SncDivisor: _divisor_text,
    BlowupRecord: _blowup_text, **dict.fromkeys(_KEYS, _record_text)}


def document_json(doc: InputDocument) -> dict:
    """The document as a report value; the divisor stays an ``SncDivisor``,
    which ``_json_text`` prints as its block."""
    out: dict[str, Any] = {"version": doc.version, "divisor": doc.divisor}
    if doc.picard is not None:
        out["picard"] = _picard_json(doc.picard)
    if doc.dubois is not None:
        out["dubois"] = _dubois_json(doc.dubois)
    out["field_mode"] = doc.field_mode
    return out


# --------------------------------------------------------------------------
# commands


def _cmd_validate(doc: InputDocument) -> tuple[str, dict]:
    # the strata are counted in the table the check read, not built
    strata = len(validate_snc(doc.divisor).table.ids)
    lines = [f"ok: divisor with {len(doc.divisor.components)} component(s) and "
             f"{strata} stratum component(s) is valid"]
    if doc.picard is not None:
        lines.append("picard block: present")
    if doc.dubois is not None:
        lines.append("dubois block: present")
    machine = {"command": "validate", "ok": True,
               "components": len(doc.divisor.components),
               "stratum_components": strata,
               "picard": doc.picard is not None,
               "dubois": doc.dubois is not None}
    return "\n".join(lines), machine


def _cmd_dual_complex(doc: InputDocument) -> tuple[str, dict]:
    dc = validate_snc(doc.divisor)
    comps = dc.components
    # (id, vertices) per cell by dimension; the check made the ids unique
    layers = [[(c, (c,)) for c in comps], *[[] for _ in dc.counts[2:]]]
    for sid, pos in zip(dc.table.ids, dc.table.positions):
        layers[len(pos) - 1].append((sid, [comps[p] for p in pos]))
    lines, dims = [], []
    for dim, cells in enumerate(layers):
        cells.sort()
        lines.append(f"dimension {dim}: {len(cells)} cell(s): "
                     + ", ".join([cid for cid, _ in cells]))
        dims.append({"dimension": dim, "count": len(cells),
                     "cells": [{"id": cid, "vertices": list(vertices)}
                               for cid, vertices in cells]})
    machine = {"command": "dual-complex", "cells_by_dimension": dims}
    return "\n".join(lines), machine


def _cmd_cohomology(doc: InputDocument) -> tuple[str, dict]:
    cx = validate_snc(doc.divisor).chain_complex()
    n = doc.divisor.n
    # len(cx.ranks) - 1 is the dual complex's dimension, at most n - 1
    listed = n if n <= COHOMOLOGY_LISTED_DEGREES else len(cx.ranks)
    lines = []
    groups = []
    for i in range(listed):
        g = cohomology(cx, i)
        lines.append(f"H^{i} = {g}")
        groups.append({"degree": i, "str": str(g), "free_rank": g.free_rank,
                       "torsion": list(g.torsion)})
    machine: dict[str, Any] = {"command": "cohomology", "groups": groups}
    if listed < n:
        lines.append(f"H^i = 0 for {listed} <= i <= {n - 1}")
        machine["zero_degrees"] = {"first": listed, "last": n - 1}
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
        "blowups": records,
        "is_simplicial": True,
        "document": document_json(new_doc),
    }
    return "\n".join(lines), machine


def _kh_text(r: KhReport) -> list[str]:
    u = r.units_cohomology
    m = r.one_motive
    g = _group_str
    lines = [
        f"kh report: n = {r.n}, field mode {r.field_mode}",
        f"KH_{1 - r.n - 1}(X) = H^{r.n - 1}(D(E),Z) = {g(r.kh_top)}",
        f"H^{r.n - 3}(D(E),Z) = {g(r.h_n_minus_3)}",
        f"H^{r.n - 2}(D(E),Z) = {g(r.h_n_minus_2)}",
        "units cohomology:",
        f"  torus: {u.torus._text(g)}",
        f"  coker(Pic^0) dimension: {u.coker_pic0_dim}",
        f"  ker(beta): {u.ker_beta._text(g)}",
        f"  coker(NS): {g(u.coker_ns)}",
        f"  coker(Pic): {u.coker_pic._text(g)}",
        "one-motive:",
        f"  lattice L' = ker(NS): {g(m.lattice_lprime)}",
        f"  lattice L = Gamma: {g(m.lattice_l)}",
        f"  surjection L' -> L: {m.surjection_matrix.to_lists()}",
        f"  abelian dimension: {m.abelian_dim}",
        f"  map status: {m.map_status}",
        f"KH_{1 - r.n}(X):",
        f"  sub (units modulo d_2): {r.kh_value.sub._text(g)}",
        f"  quotient H^{r.n - 2}(D(E),Z): {r.kh_value.quotient._text(g)}",
        f"  value: {r.kh_value.total._text(g)}",
        f"  split: {'yes' if r.kh_value.split else 'no'}",
        f"  finitely generated: {'yes' if r.kh_is_finitely_generated else 'no'}",
        "ker(alpha):",
        f"  ker(beta): {r.ker_alpha.ses.sub._text(g)}",
        f"  im(d_2): {r.ker_alpha.ses.quotient._text(g)}",
        f"  total: {r.ker_alpha.ses.total._text(g)}",
        f"  standing bound ker(NS): {g(r.ker_alpha.ker_ns_bound)}",
        "coker(alpha):",
        f"  sub coker(NS): {r.coker_alpha.sub._text(g)}",
        f"  quotient H^{r.n - 2}(D(E),Z): {r.coker_alpha.quotient._text(g)}",
        f"  total: {r.coker_alpha.total._text(g)}",
        f"  split: {'yes' if r.coker_alpha.split else 'no'}",
        f"n3 exact: {'yes' if r.n3_exact else 'no'}",
        f"d_2 top differential known zero: {'yes' if r.d2_top_known_zero else 'no'}",
    ]
    return lines


def _cmd_kh_report(doc: InputDocument) -> tuple[str, dict]:
    if doc.picard is None:
        raise MissingBlockError("picard", "kh-report")
    report = kh_report(doc.divisor, doc.picard, doc.field_mode)
    return "\n".join(_kh_text(report)), {"command": "kh-report", **report._asdict()}


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
    return "\n".join(lines), {"command": "k-report", **report._asdict()}


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

    The machine report is a value ``_json_text`` prints: plain JSON data
    but for the objects it holds, ``resolve``'s ``BlowupRecord`` list and
    resolved ``SncDivisor`` (``["blowups"]``, ``["document"]["divisor"]``) and
    the report fields of ``kh-report`` and ``k-report``, each its object.
    ``max_blowups`` caps the resolution loop; only ``resolve`` runs it.
    """
    if command == "resolve":
        return _cmd_resolve(document, max_blowups)
    try:
        handler = _DISPATCH[command]
    except KeyError:
        raise ValueError(f"unknown command {command!r}; choose from {COMMANDS}")
    return handler(document)


def _non_negative_int(text: str) -> int:
    """argparse type of ``--max-blowups``: a non-negative integer in ASCII
    digits."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for later calls."""
    parser = argparse.ArgumentParser(
        prog="snckit",
        description="Reports on SNC divisor dual complexes and the finitely "
                    "generated parts of negative K-theory.")
    parser.add_argument("--input", required=True, help="path to a JSON document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--emit", choices=("json", "text", "both"), default="text")
    parser.add_argument("--max-blowups", type=_non_negative_int, default=MAX_BLOWUPS,
                        help="resolution loop iteration cap")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Each distinct group of a report is formatted once, its text and its
    JSON object at each indent; the memo is dropped on the way out.

    The cyclic garbage collector is off while it runs, and left on or off
    as the caller had it: past the parser built on the first call, a run
    leaves no reference cycles, so reference counting frees what it
    makes, and a collection would only rescan the tuples and dicts of a
    large divisor, which live until the end.

    Input integers are decoded under Python's limit on the digits of an
    int converted from or to a string, where it has one; past the parse
    the limit is lifted, since an exact answer, such as the order of a
    cokernel, may have many more digits than any input.  The caller's
    limit is restored on the way out.
    """
    global _texts
    enabled = gc.isenabled()
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    gc.disable()
    _texts = {}
    try:
        args = _parser().parse_args(argv)   # a usage error raises SystemExit(2)
        document = parse_input(args.input)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        text, machine = run(args.command, document, args.max_blowups)
        out = [text] if args.emit in ("text", "both") else []
        if args.emit in ("json", "both"):
            out.append(_json_text(machine))
        print("\n".join(out))
    except MissingBlockError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # nothing should reach this
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        _texts = None
        if enabled:
            gc.enable()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
