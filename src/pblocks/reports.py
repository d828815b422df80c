"""Canonical JSON documents for tables, blocks, chains, and check bundles.

Every document is emitted through :func:`canonical_json`, which fixes key
order and layout so that re-running a job yields byte-identical output: a
two-space indent, keys sorted, every non-ASCII character as a ``\\uXXXX``
escape, and a trailing newline.  The text is written by json's C encoder.
Reports deliberately carry no timestamps; the canonical arithmetic choices
(the splitting prime, its primitive root, the reduction field modulus) are
embedded instead so runs are reproducible.
"""

from __future__ import annotations

from functools import cache
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii

from .blockfield import block_field
from .blocks import Block, heights, p_blocks
from .chains import PairSet, _stabilizer_rows
from .chartable import CharTable, character_table
from .groups import Group
from .perms import format_cycles

SCHEMA_VERSION = "pblocks/1"


_CONTAINERS = (dict, list, tuple)
_LEAVES = frozenset((str, int, float, bool, type(None)))


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True)`` and a
    newline, for any tree of JSON values with string keys and tuples as lists.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the
    layout is written here: every container whose values are leaves or empty
    containers is one call of json's C encoder, and the containers above
    them are joined in Python.  Each container is joined into one string as
    soon as it is written, so no list of small pieces outlives it.
    """
    return _text(obj, 0) + "\n"


@cache
def _layout(level: int) -> tuple:
    """(C encoder, inner indent, outer indent) of a container nested
    ``level`` deep.  The encoder writes a flat container with its items
    separated by a comma, a newline and the inner indent."""
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    # markers (None: no cycle check, reports are trees), default, string
    # encoder, indent (unused), key and item separators, sort_keys,
    # skipkeys, allow_nan
    encoder = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                             ": ", "," + inner, True, False, True)
    return encoder, inner, outer


def _text(obj, level: int) -> str:
    """The text of ``obj`` at nesting depth ``level``."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    encoder, inner, outer = _layout(level)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return "".join(encoder(obj, 0))
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    # the type test settles most flat containers without a Python loop
    if _LEAVES.issuperset(map(type, values)) or not any(
            isinstance(v, _CONTAINERS) and v for v in values):
        text = "".join(encoder(obj, 0))  # one piece, or a few on Python 3.10
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    parts = []
    if is_dict:
        for key, value in sorted(obj.items()):
            parts += (",", inner, encode_basestring_ascii(key), ": ", _text(value, level + 1))
    else:
        for value in obj:
            parts += (",", inner, _text(value, level + 1))
    parts[0] = "{" if is_dict else "["  # the first item's comma
    parts += (outer, "}" if is_dict else "]")
    return "".join(parts)


def group_document(G: Group) -> dict:
    return {
        "degree": G.degree,
        "order": G.order,
        "generators": [format_cycles(g) for g in G.generators],
    }


def table_document(table: CharTable) -> dict:
    """Exact table serialization: classes, degrees, integer value vectors."""
    return {
        "schema": SCHEMA_VERSION + "/table",
        "group": group_document(table.group),
        "conductor": table.conductor,
        "classes": [
            {
                "rep": format_cycles(c.rep),
                "size": c.size,
                "centralizer_order": c.centralizer_order,
            }
            for c in table.classes
        ],
        "degrees": list(table.degrees),
        "values": table.values.tolist(),
        "lift": _lift_document(table),
    }


def _lift_document(table: CharTable) -> dict:
    """The splitting prime, its primitive root and the lifting root of unity."""
    meta = table.lift_meta
    return {"prime": meta["prime"], "primitive_root": meta["primitive_root"],
            "unit_root_power": meta["root_power"]}


def block_document(table: CharTable, p: int) -> dict:
    blocks = p_blocks(table, p)
    field = block_field(p, table.conductor)
    return {
        "schema": SCHEMA_VERSION + "/blocks",
        "group": group_document(table.group),
        "p": p,
        "reduction_field": field.describe(),
        "blocks": [_one_block(b) for b in blocks],
    }


def _one_block(b: Block) -> dict:
    return {
        "index": b.index,
        "members": list(b.members),
        "degrees": [b.table.degrees[i] for i in b.members],
        "defect": b.defect,
        "defect_group_order": b.defect_group.order,
        "defect_group_generators": [
            format_cycles(g) for g in b.defect_group.generators
        ],
        "principal": b.is_principal,
        "heights": list(heights(b)),
    }


def chain_orbit_document(o, formatted: dict, **fields) -> dict:
    """The fields shared by every report of one chain orbit, and ``fields``.

    Orbits share few distinct terms, so ``formatted`` (one dict per
    document) keeps each term's generators in cycle notation, and every
    orbit with that term shares the one list.
    """
    term_generators = []
    for t in o.chain.terms:
        if t not in formatted:
            formatted[t] = [format_cycles(g) for g in t.generators]
        term_generators.append(formatted[t])
    return {
        "terms": [t.order for t in o.chain.terms],
        "term_generators": term_generators,
        "length": o.chain.length,
        "sign": "+" if o.sign > 0 else "-",
        "stabilizer_order": o.stabilizer.order,
        "orbit_size": o.orbit_size,
        **fields,
    }


def chain_document(S: PairSet) -> dict:
    """Chain report: every orbit with per-defect character counts by induced block."""
    orbits = []
    formatted: dict = {}
    for o in S.orbits:
        per_defect: dict = {}
        for _, defect, target in _stabilizer_rows(S.group, o.stabilizer, S.p):
            bucket = per_defect.setdefault(str(defect), {})
            label = "undefined" if target is None else str(target.index)
            bucket[label] = bucket.get(label, 0) + 1
        orbits.append(chain_orbit_document(o, formatted, characters_by_defect=per_defect))
    doc = {
        "schema": SCHEMA_VERSION + "/chains",
        "group": group_document(S.group),
        "p": S.p,
        "start_order": S.start.order,
        "orbit_count": len(S.orbits),
        "orbits": orbits,
    }
    if S.block is not None:
        doc["block"] = S.block.index
        doc["d"] = S.d
        plus, minus = S.counts
        doc["pair_counts"] = {"plus": plus, "minus": minus}
    return doc


def environment_document(G: Group, p: int | None) -> dict:
    env = {
        "limits": {
            "max_order": G.limits.max_order,
            "max_p_subgroup_classes": G.limits.max_p_subgroup_classes,
            "max_chain_orbits": G.limits.max_chain_orbits,
        }
    }
    table = character_table(G)
    env["table_lift"] = _lift_document(table)
    if p is not None:
        env["reduction_field"] = block_field(p, table.conductor).describe()
    return env
