"""Timing and counting wrappers installed on the public functions of pblocks.

Nothing under ``src/`` knows about tracing: :func:`install` replaces every
public function and public method of each pblocks module by a wrapper, in
every module that binds it (``from .chartable import character_table`` binds
the function in the importing module too).  Functions called about 10^5
times or more per job are in ``COUNTED`` and are only counted; their time
stays in the caller's self time.  Every other wrapper records a span, and a
span's self time is its duration minus the durations of the spans it
encloses, so the self times of one job add up to the job's traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("perms", "groups", "chartable", "modlinalg", "blockfield",
           "cyclotomic", "blocks", "chains", "conjectures", "reports",
           "library", "cli")

# Called about 10^5 times or more in a single benchmark job, or helpers whose
# time belongs to the caller (closure runs inside elements(), sylow(), ...).
# Every function of perms is counted only.  blocks.p_blocks stays timed
# although block_of calls it about 2.5 * 10^5 times in the largest
# chains-count job, because blocks.p_blocks_s needs its span.
COUNTED = frozenset({
    "groups.closure", "groups.Group.contains",
    "chartable.char_ref", "blocks.block_of",
})

# Methods with a leading underscore that still mark a layer boundary.
EXTRA_METHODS = {"groups.Group": ("__init__",)}


class Tracer:
    """Per-job span totals: name -> [self seconds, calls]; plus result counts."""

    def __init__(self):
        self.stack: list[float] = []
        self.cells: dict[str, list] = {}
        self.extra: dict[str, int] = {}
        self._seen: dict[int, object] = {}

    def cell(self, name: str) -> list:
        return self.cells.setdefault(name, [0.0, 0])

    def reset(self) -> None:
        for c in self.cells.values():
            c[0], c[1] = 0.0, 0
        for k in self.extra:
            self.extra[k] = 0
        self._seen.clear()
        if self.stack:
            raise RuntimeError("tracer reset inside an open span")

    def first_sight(self, obj) -> bool:
        """True the first time a result object is seen in this job."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj  # keeps the id from being reused
        return True

    def add(self, key: str, n: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def snapshot(self) -> dict:
        return {
            "spans": {k: c[:] for k, c in self.cells.items() if c[1]},
            "extra": dict(self.extra),
        }


def _timed(fn, name: str, tracer: Tracer, hook):
    stack = tracer.stack
    cell = tracer.cell(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            cell[0] += dur - stack.pop()
            cell[1] += 1
            if stack:
                stack[-1] += dur
        if hook is not None:
            hook(tracer, result)
        return result

    return wrapper


def _counted(fn, name: str, tracer: Tracer):
    cell = tracer.cell(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[1] += 1
        return fn(*args, **kwargs)

    return wrapper


def _new_tables(tracer, table):
    if tracer.first_sight(table):
        tracer.add("tables_built", 1)


def _new_p_classes(tracer, classes):
    if tracer.first_sight(classes):
        tracer.add("p_subgroup_classes", len(classes))


def _orbits(tracer, orbits):
    tracer.add("orbits", len(orbits))
    tracer.add("distinct_stabilizers",
               len({o.stabilizer.elements for o in orbits}))


def _pairs(tracer, pair_set):
    tracer.add("pairs", len(pair_set.plus) + len(pair_set.minus))


HOOKS = {
    "chartable.character_table": _new_tables,
    "groups.Group.p_subgroup_classes": _new_p_classes,
    "chains.enumerate_chain_orbits": _orbits,
    "chains.pair_set": _pairs,
}


def _targets(mod, short: str):
    """(owner, attribute, qualified name, function) for each public callable."""
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            extra = EXTRA_METHODS.get(f"{short}.{attr}", ())
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and (not meth.startswith("_") or meth in extra):
                    yield obj, meth, f"{short}.{attr}.{meth}", fn
        elif callable(obj) and not attr.startswith("_"):
            yield None, attr, f"{short}.{attr}", obj


def install() -> Tracer:
    """Wrap every public function of pblocks; return the tracer they report to."""
    tracer = Tracer()
    modules = {s: importlib.import_module(f"pblocks.{s}") for s in MODULES}
    modules[""] = importlib.import_module("pblocks")
    replaced: dict[int, object] = {}
    for short, mod in modules.items():
        if not short:
            continue
        for owner, attr, name, fn in list(_targets(mod, short)):
            if short == "perms" or name in COUNTED:
                wrapper = _counted(fn, name, tracer)
            else:
                wrapper = _timed(fn, name, tracer, HOOKS.get(name))
            if owner is not None:
                setattr(owner, attr, wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
    # Rebind module-level functions in every module that imported them.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer


# Per-layer metrics: name -> (unit, kind, which).  Over one pass it adds up
#   kind "self":  the self seconds of the spans named in ``which``,
#   kind "calls": their calls,
#   kind "extra": the count ``which`` taken from results by a HOOKS entry.
# ``which`` is a list of span names, or a string prefix naming a whole layer.
GROUPS = "groups.Group."
LAYER_METRICS = {
    "perms.pmul_calls": ("count", "calls", ["perms.pmul"]),
    "perms.conj_calls": ("count", "calls", ["perms.conj"]),
    "perms.pinv_calls": ("count", "calls", ["perms.pinv"]),
    "groups.build_s": ("s", "self", [GROUPS + "__init__"]),
    "groups.builds": ("count", "calls", [GROUPS + "__init__"]),
    "groups.elements_s": ("s", "self", [GROUPS + "elements", GROUPS + "element_set"]),
    "groups.classes_s": ("s", "self", [GROUPS + "conjugacy_classes",
                                       GROUPS + "class_index"]),
    "groups.p_subgroups_s": ("s", "self", [GROUPS + "p_subgroup_classes"]),
    "groups.p_subgroup_classes": ("count", "extra", "p_subgroup_classes"),
    "groups.normalizer_s": ("s", "self", [GROUPS + "normalizer",
                                          GROUPS + "normalizer_set"]),
    "groups.normalizer_calls": ("count", "calls", [GROUPS + "normalizer_set"]),
    "groups.subgroup_orbit_s": ("s", "self", [GROUPS + "subgroup_orbit"]),
    "groups.sylow_s": ("s", "self", [GROUPS + "sylow", GROUPS + "p_core"]),
    "groups.centralizer_s": ("s", "self", [GROUPS + "centralizer_set",
                                           GROUPS + "center"]),
    "groups.handle_s": ("s", "self", [GROUPS + "handle"]),
    "chartable.table_s": ("s", "self", ["chartable.character_table"]),
    "chartable.cmc_s": ("s", "self", ["chartable.CharTable.cmc"]),
    "chartable.power_map_s": ("s", "self", ["chartable.CharTable.power_map"]),
    "chartable.tables_built": ("count", "extra", "tables_built"),
    "chartable.char_ref_calls": ("count", "calls", ["chartable.char_ref"]),
    "modlinalg.s": ("s", "self", "modlinalg."),
    "modlinalg.calls": ("count", "calls", "modlinalg."),
    "blockfield.reduce_s": ("s", "self", ["blockfield.BlockField.reduce_int_vector"]),
    "blockfield.reduce_calls": ("count", "calls",
                                ["blockfield.BlockField.reduce_int_vector"]),
    "blocks.p_blocks_s": ("s", "self", ["blocks.p_blocks"]),
    "blocks.correspondent_s": ("s", "self", ["blocks.brauer_correspondent"]),
    "blocks.induce_s": ("s", "self", ["blocks.brauer_induce"]),
    "blocks.induce_calls": ("count", "calls", ["blocks.brauer_induce"]),
    "blocks.block_of_calls": ("count", "calls", ["blocks.block_of"]),
    "chains.enumerate_s": ("s", "self", ["chains.enumerate_chain_orbits"]),
    "chains.orbits": ("count", "extra", "orbits"),
    "chains.distinct_stabilizers": ("count", "extra", "distinct_stabilizers"),
    "chains.pair_set_s": ("s", "self", ["chains.pair_set"]),
    "chains.pair_sets": ("count", "calls", ["chains.pair_set"]),
    "chains.pairs": ("count", "extra", "pairs"),
    "conjectures.pairing_s": ("s", "self", [
        "conjectures.final_term_pairing", "conjectures.pairing_with_repair",
        "conjectures.repair_bijection", "conjectures.boundary_sets"]),
    "reports.documents_s": ("s", "self", [
        "reports.group_document", "reports.table_document",
        "reports.block_document", "reports.chain_document",
        "reports.environment_document"]),
    "reports.json_s": ("s", "self", ["reports.canonical_json"]),
}
# Self time of every layer; per job these add up to the traced job time.
LAYERS = ("cli", "library", "groups", "chartable", "modlinalg", "blockfield",
          "cyclotomic", "blocks", "chains", "conjectures", "reports")
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "self", f"{_layer}.")
LAYER_METRICS["chartable.table_reuse"] = ("ratio", None, None)
LAYER_METRICS["trace.wall_s"] = ("s", None, None)
LAYER_METRICS["trace.overhead_s"] = ("s", None, None)


def _pick(spans: dict, which) -> list:
    if isinstance(which, str):  # a prefix: every span of the layer
        return [c for name, c in spans.items() if name.startswith(which)]
    return [spans[name] for name in which if name in spans]


def layer_values(records: list) -> dict:
    """Per-layer metric values of one traced pass."""
    spans: dict[str, list] = {}
    extra: dict[str, int] = {}
    for rec in records:
        for name, (self_s, calls) in rec["trace"]["spans"].items():
            acc = spans.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
        for key, n in rec["trace"]["extra"].items():
            extra[key] = extra.get(key, 0) + n
    out = {}
    for name, (_unit, kind, which) in LAYER_METRICS.items():
        if kind == "self":
            out[name] = sum(c[0] for c in _pick(spans, which))
        elif kind == "calls":
            out[name] = sum(c[1] for c in _pick(spans, which))
        elif kind == "extra":
            out[name] = extra.get(which, 0)
    calls = spans.get("chartable.character_table", [0.0, 0])[1]
    out["chartable.table_reuse"] = 1 - extra.get("tables_built", 0) / calls if calls else 0.0
    out["trace.wall_s"] = sum(rec["time"] for rec in records)
    return out
