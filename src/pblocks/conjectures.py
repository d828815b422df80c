"""Counting and pairing checks for the chain/character bijection conjectures.

Everything here verifies counting consequences on concrete groups: equality
of signed pair-orbit families blockwise and block-free, height-zero counts
across the Brauer correspondence, abelian-defect consistency, the
final-term surgery pairing on chain orbits, and the combinatorial repair
loop that moves a bijection's boundary straight.

One rule, :func:`_core_mode`, decides where the count at d = d(B) from
O_p(G) applies to a block B, for ``max-defect``, ``pi-pairing`` and
``abelian-defect`` alike: nowhere if the defect groups are central, and
otherwise exactly when d(B) > log_p |O_p(G)|, in strict mode if O_p(G) is
central and in permissive mode if not.

No character-triple isomorphisms are verified; the tool confirms or refutes
the numerical shadows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    Block,
    block_of,
    brauer_correspondent,
    heights,
    irr0,
    is_central_defect,
    p_blocks,
)
from .chains import PairSet, _child_orbit, pair_set, signed_pair_counts
from .chartable import character_table, p_prime_degree_set
from .cyclotomic import _nu
from .errors import InputError, InternalError
from .groups import Group, SubgroupHandle, _member_mask, _orbit_labels
from .perms import format_cycles
from .reports import chain_orbit_document, group_document

__all__ = [
    "CheckReport",
    "BoundarySets",
    "PairingWitness",
    "RepairResult",
    "verify_pair_count",
    "verify_am_count",
    "verify_max_defect",
    "verify_abelian_defect",
    "verify_blockfree",
    "defect_support_scan",
    "boundary_sets",
    "final_term_pairing",
    "repair_bijection",
    "pairing_with_repair",
    "pi_pairing_check",
]


@dataclass
class CheckReport:
    """Outcome of one check: two counts, a verdict, and witness data."""

    check: str
    inputs: dict
    left: int | None
    right: int | None
    verdict: str  # pass | fail | not-applicable
    witness: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "left_count": self.left,
            "right_count": self.right,
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def _subgroup_desc(h: SubgroupHandle) -> dict:
    return {
        "order": h.order,
        "generators": [format_cycles(g) for g in h.generators],
    }


def _chain_witness(S: PairSet) -> dict:
    """Orbit listing plus per-chain pair counts; the reproducible core data."""
    formatted: dict = {}
    orbits = [
        chain_orbit_document(o, formatted, pairs_here=len(chars))
        for o, chars in zip(S.orbits, S.chars)
    ]
    return {"chain_orbits": orbits}


# -- blockwise counting ---------------------------------------------------------


def verify_pair_count(
    G: Group,
    B: Block,
    Z: SubgroupHandle | None = None,
    d: int | None = None,
    A: Group | None = None,
    mode: str = "strict",
) -> CheckReport:
    """|plus orbits| == |minus orbits| for (B, Z, d); optionally the ambient
    orbit-size multisets.

    Strict mode enforces the conjecture's hypotheses (O_p(G) central, start
    Z = O_p(G), non-central defect groups); permissive mode allows any
    normal p-subgroup start U with d(B) > log_p |U|.  Hypothesis failures
    yield a not-applicable verdict, never an error.
    """
    p = B.p
    if Z is None:
        Z = G.p_core(p)
    if d is None:
        d = B.defect
    if d < 0:
        raise InputError("defect must be non-negative")
    inputs = {
        "group": group_document(G),
        "p": p,
        "block": B.index,
        "block_degrees": [B.table.degrees[i] for i in B.members],
        "start": _subgroup_desc(Z),
        "d": d,
        "mode": mode,
    }
    if A is not None:
        inputs["ambient"] = group_document(A)

    if not Z.is_p_group(p) or not G.is_normal(Z):
        raise InputError("start term must be a normal p-subgroup")
    if is_central_defect(B):
        return CheckReport("pair-count", inputs, None, None, "not-applicable",
                           witness={"reason": "block has central defect groups"})
    if mode == "strict":
        core = G.p_core(p)
        center = G.center()
        if Z.elements != core.elements:
            return CheckReport("pair-count", inputs, None, None, "not-applicable",
                               witness={"reason": "strict mode needs Z = O_p(G)"})
        if not core.elements <= center.elements:
            return CheckReport("pair-count", inputs, None, None, "not-applicable",
                               witness={"reason": "O_p(G) is not central"})
    elif mode == "permissive":
        if B.defect <= _nu(Z.order, p):
            return CheckReport("pair-count", inputs, None, None, "not-applicable",
                               witness={"reason": "defect does not exceed log_p |start|"})
    else:
        raise InputError(f"unknown mode {mode!r}")

    S = pair_set(G, B, Z, d)
    witness = _chain_witness(S)
    left, right = S.counts
    verdict = "pass" if left == right else "fail"

    if A is not None:
        plus_sizes, minus_sizes = ambient_orbit_sizes(G, A, B, S)
        witness["ambient_orbit_sizes"] = {
            "plus": sorted(plus_sizes),
            "minus": sorted(minus_sizes),
        }
        if sorted(plus_sizes) != sorted(minus_sizes):
            verdict = "fail"
    return CheckReport("pair-count", inputs, left, right, verdict, witness=witness)


def verify_am_count(G: Group, B: Block) -> CheckReport:
    """|Irr_0(B)| == |Irr_0(b)| for the correspondent b in N_G(D)."""
    D = B.defect_group
    b = brauer_correspondent(B, D)
    left = len(irr0(B))
    right = len(irr0(b))
    inputs = {
        "group": group_document(G),
        "p": B.p,
        "block": B.index,
        "defect_group": _subgroup_desc(D),
        "normalizer_order": b.group.order,
    }
    witness = {
        "height_zero_degrees": [B.table.degrees[i] for i in irr0(B)],
        "local_height_zero_degrees": [b.table.degrees[i] for i in irr0(b)],
    }
    return CheckReport("am-count", inputs, left, right,
                       "pass" if left == right else "fail", witness=witness)


def _core_mode(G: Group, B: Block) -> tuple[str | None, str | None]:
    """(mode, reason) of the pair count on B at d = d(B) from O_p(G): the
    ``verify_pair_count`` mode that applies, or None and why none does.

    Strict mode needs O_p(G) central, permissive mode needs d(B) >
    log_p |O_p(G)|, and neither says anything for central defect groups.
    These are one rule, "D is not central and d(B) > log_p |O_p(G)|":
    O_p(G) lies in every defect group D, so a central O_p(G) under a
    non-central D is proper in D, and d(B) > log_p |O_p(G)| whenever
    strict mode applies.
    """
    if is_central_defect(B):
        return None, "central defect groups"
    core = G.p_core(B.p)
    if core.elements <= G.center().elements:
        return "strict", None
    if B.defect > _nu(core.order, B.p):
        return "permissive", None
    return None, "defect group equals the non-central p-core"


def verify_max_defect(G: Group, p: int, A: Group | None = None,
                      blocks=None) -> list[CheckReport]:
    """Run the pair count at d = d(B) for every p-block, or for each of
    ``blocks``, start O_p(G), in the mode that :func:`_core_mode` gives."""
    core = G.p_core(p)
    out = []
    for B in p_blocks(character_table(G), p) if blocks is None else blocks:
        mode, reason = _core_mode(G, B)
        if mode is None:
            out.append(CheckReport(
                "max-defect", {"group": group_document(G), "p": p, "block": B.index},
                None, None, "not-applicable", witness={"reason": reason}))
            continue
        rep = verify_pair_count(G, B, core, B.defect, A=A, mode=mode)
        rep.check = "max-defect"
        out.append(rep)
    return out


def verify_abelian_defect(G: Group, p: int) -> list[CheckReport]:
    """For abelian-defect blocks: all heights zero, and counts for each
    admissible defect value f with log_p |O_p(G)| < f <= d(B), where
    :func:`_core_mode` gives a mode."""
    core = G.p_core(p)
    m = _nu(core.order, p)
    out = []
    for B in p_blocks(character_table(G), p):
        inputs = {"group": group_document(G), "p": p, "block": B.index,
                  "defect": B.defect}
        hts = heights(B)
        if not B.defect_group.is_abelian():
            bad = [(B.table.degrees[i], h) for i, h in zip(B.members, hts) if h > 0]
            out.append(CheckReport(
                "abelian-defect", inputs, None, None, "not-applicable",
                witness={"reason": "defect group is nonabelian",
                         "positive_height_members": bad}))
            continue
        zero = hts.count(0)
        out.append(CheckReport(
            "abelian-defect-heights", inputs, zero, len(hts),
            "pass" if zero == len(hts) else "fail",
            witness={"heights": list(hts)}))
        mode, _ = _core_mode(G, B)
        for f in range(m + 1, B.defect + 1) if mode else ():
            rep = verify_pair_count(G, B, core, f, mode=mode)
            rep.check = "abelian-defect-count"
            rep.inputs["f"] = f
            out.append(rep)
    return out


# -- block-free counting -----------------------------------------------------------


def _blockfree_start(G: Group, p: int, U: SubgroupHandle | None) -> SubgroupHandle:
    """The start term of a block-free check, trivial by default: a normal
    p-subgroup smaller than a Sylow p-subgroup."""
    if U is None:
        U = G.trivial_subgroup()
    if not U.is_p_group(p) or not G.is_normal(U):
        raise InputError("start term must be a normal p-subgroup")
    if U.order == G.order_p_part(p):
        raise InputError("start term must be smaller than a Sylow p-subgroup")
    return U


def verify_blockfree(G: Group, p: int, U: SubgroupHandle | None = None) -> CheckReport:
    """Signed pair counts over all blocks at maximal defect, plus the count
    of p'-degree characters against the Sylow normalizer."""
    U = _blockfree_start(G, p, U)
    d = _nu(G.order, p)
    S = pair_set(G, "all", U, d, p=p)
    left, right = S.counts
    P = G.sylow(p)
    N = G.normalizer(P).as_group()
    mckay_left = len(p_prime_degree_set(character_table(G), p))
    mckay_right = len(p_prime_degree_set(character_table(N), p))
    inputs = {"group": group_document(G), "p": p, "start": _subgroup_desc(U), "d": d}
    witness = _chain_witness(S)
    witness["mckay"] = {
        "p_prime_degree_count": mckay_left,
        "sylow_normalizer_count": mckay_right,
        "sylow_normalizer_order": N.order,
    }
    ok = left == right and mckay_left == mckay_right
    return CheckReport("blockfree-count", inputs, left, right,
                       "pass" if ok else "fail", witness=witness)


def defect_support_scan(G: Group, p: int, U: SubgroupHandle | None = None) -> CheckReport:
    """Table of |C^f(G,U)_+|, |C^f(G,U)_-| for all f, for abelian Sylow groups.

    Entries at f below maximal defect are reported and flagged, never
    suppressed: defect-zero characters of the whole group do appear on the
    trivial chain, so the scan is a finding generator, not an assertion.
    """
    U = _blockfree_start(G, p, U)
    inputs = {"group": group_document(G), "p": p, "start": _subgroup_desc(U)}
    if not G.sylow(p).is_abelian():
        return CheckReport("defect-scan", inputs, None, None, "not-applicable",
                           witness={"reason": "Sylow p-subgroup is nonabelian"})
    d = _nu(G.order, p)
    rows, _ = signed_pair_counts(G, U, p)
    flagged = []
    for f, counts in enumerate(rows):
        if f != d and counts != (0, 0):
            S = pair_set(G, "all", U, f, p=p)
            if S.counts != counts:
                raise InternalError("pair counts disagree with the chain-orbit listing")
            wit = [
                {
                    "sign": sgn,
                    "chain_terms": [t.order for t in S.orbits[ci].chain.terms],
                    "char_degree": S.stabilizer_table(ci).degrees[i],
                }
                for sgn, side in (("+", S.plus), ("-", S.minus))
                for ci, i in side
            ]
            flagged.append({"f": f, "counts": list(counts), "pairs": wit})
    witness = {"counts_by_defect": {str(f): list(c) for f, c in enumerate(rows)},
               "flagged": flagged}
    notes = ()
    if flagged:
        notes = ("nonempty pair sets away from maximal defect are reported "
                 "verbatim; see the flagged witness entries",)
    return CheckReport("defect-scan", inputs, rows[d][0], rows[d][1],
                       "pass" if rows[d][0] == rows[d][1] else "fail",
                       witness=witness, notes=notes)


# -- boundary sets and the final-term pairing ---------------------------------------


@dataclass(frozen=True)
class BoundarySets:
    """The length-0 / defect-group-chain pairs and their complements."""

    C0: tuple
    C1: tuple
    Jplus: tuple
    Jminus: tuple


def boundary_sets(S: PairSet, B: Block) -> BoundarySets:
    dkey = B.defect_group.canonical_key
    c0, c1, jp, jm = [], [], [], []
    for pair in S.plus:
        chain = S.orbits[pair[0]].chain
        if chain.length == 0:
            c0.append(pair)
        else:
            jp.append(pair)
    for pair in S.minus:
        chain = S.orbits[pair[0]].chain
        if chain.length == 1 and chain.terms[1].canonical_key == dkey:
            c1.append(pair)
        else:
            jm.append(pair)
    return BoundarySets(tuple(c0), tuple(c1), tuple(jp), tuple(jm))


@dataclass(frozen=True)
class PairingWitness:
    """Chain pairs matched by final-term surgery, plus optional repair data."""

    chain_pairs: tuple  # ((plus chain idx, minus chain idx, n_plus, n_minus), ...)
    repaired_map: dict | None = None
    swap_log: tuple = ()

    def pair_documents(self) -> list:
        return [{"plus_chain": a, "minus_chain": b, "plus_chars": n, "minus_chars": m}
                for (a, b, n, m) in self.chain_pairs]

    def to_dict(self) -> dict:
        out = {"chain_pairs": self.pair_documents()}
        if self.repaired_map is not None:
            out["repaired_map"] = {str(k): str(v) for k, v in sorted(self.repaired_map.items())}
            out["swap_log"] = [
                {
                    "start": str(entry["start"]),
                    "end": str(entry["end"]),
                    "chase_length": len(entry["chase"]) - 1,
                    "swapped": [[str(u), str(v)] for u, v in entry["swapped"]],
                }
                for entry in self.swap_log
            ]
        return out


def final_term_pairing(G: Group, B: Block) -> PairingWitness:
    """Pair the non-boundary chain orbits by final-term surgery.

    A plus-side chain whose final term is a defect group of B is matched
    with the orbit of the chain obtained by deleting that term; otherwise
    the chain is extended by the defect group of the block of an eligible
    stabilizer character, which contains the final term and has order
    p^d(B).  The result is checked to be a bijection on chain orbits with
    equal eligible-character counts on matched chains.
    """
    S = pair_set(G, B, G.p_core(B.p), B.defect)
    return PairingWitness(_surgery(G, B, S, boundary_sets(S, B)))


def _surgery(G: Group, B: Block, S: PairSet, bounds: BoundarySets) -> tuple:
    """The chain pairs of :func:`final_term_pairing` on the pair set S of B
    at maximal defect from O_p(G), with its boundary sets."""
    p = B.p
    # chain index -> eligible characters, for the chains off the boundary
    plus_chains = {ci: len(S.chars[ci]) for ci, _ in bounds.Jplus}
    minus_chains = {ci: len(S.chars[ci]) for ci, _ in bounds.Jminus}
    dkey = B.defect_group.canonical_key

    def surgery_target(ci: int) -> int:
        orb = S.orbits[ci]
        if orb.chain.final.canonical_key == dkey:
            if orb.parent is None:
                raise InternalError("defect-group chain with no parent orbit")
            return orb.parent
        stab = orb.stabilizer
        table = character_table(stab.as_group())
        children = set()
        for dg in {stab.lift(block_of(table, p, i).defect_group).elements for i in S.chars[ci]}:
            if len(dg) != p**B.defect:
                raise InternalError("eligible stabilizer block has wrong defect")
            if not orb.chain.final.elements < dg:
                raise InternalError("append target does not contain the final term")
            children.add(_child_orbit(G, S.orbits, ci, dg))
        if len(children) != 1:
            raise InternalError("eligible defect groups are not conjugate")
        return children.pop()

    mapping = {ci: surgery_target(ci) for ci in sorted(plus_chains)}
    if sorted(mapping.values()) != sorted(minus_chains):
        raise InternalError("final-term surgery is not a bijection on chain orbits")
    # involution: the same rule applied on the minus side must invert the map
    for cj in sorted(minus_chains):
        back = surgery_target(cj)
        if mapping.get(back) != cj:
            raise InternalError("final-term surgery is not an involution")
    chain_pairs = tuple((ci, cj, plus_chains[ci], minus_chains[cj])
                        for ci, cj in mapping.items())  # in plus-chain order
    for _, _, n_plus, n_minus in chain_pairs:
        if n_plus != n_minus:
            raise InternalError(
                f"matched chain orbits carry {n_plus} vs {n_minus} eligible characters"
            )
    return chain_pairs


# -- the repair loop -----------------------------------------------------------------


@dataclass
class RepairResult:
    mapping: dict
    swap_log: tuple


def repair_bijection(x_plus, c0, x_minus, c1, omega: dict, pi: dict,
                     action=None) -> RepairResult:
    """Rebuild omega so that the marked subset C0 maps exactly onto C1.

    pi must be a bijection between the complements.  For each bad element
    x0 of C0 the loop walks x -> pi^-1(omega(x)) until the image lands in
    C1, then swaps the images of the endpoints; the walk cannot revisit C0,
    so it terminates within |X+| steps.  With a group action given as a
    list of (plus map, minus map) generator pairs, whole orbits are swapped
    at once and the result stays equivariant.
    """
    x_plus = list(x_plus)
    x_minus = list(x_minus)
    c0set = set(c0)
    c1set = set(c1)
    if not c0set <= set(x_plus) or not c1set <= set(x_minus):
        raise InputError("marked subsets must live inside their ambient sets")
    if len(c0set) != len(c1set):
        raise InputError("|C0| must equal |C1|")
    if set(omega) != set(x_plus) or sorted(map(repr, omega.values())) != sorted(map(repr, x_minus)) \
            or len(set(omega.values())) != len(x_plus):
        raise InputError("omega is not a bijection from X+ to X-")
    dom = set(x_plus) - c0set
    cod = set(x_minus) - c1set
    if set(pi) != dom or set(pi.values()) != cod or len(set(pi.values())) != len(dom):
        raise InputError("pi is not a bijection between the complements")
    action = list(action or [])
    for ap, am in action:
        _check_action_maps(x_plus, x_minus, c0set, c1set, omega, pi, ap, am)

    om = dict(omega)
    pi_inv = {v: k for k, v in pi.items()}
    swap_log = []
    for x0 in x_plus:
        if x0 not in c0set or om[x0] in c1set:
            continue
        chase = [x0]
        x = x0
        while om[x] not in c1set:
            x = pi_inv[om[x]]
            chase.append(x)
            if len(chase) > len(x_plus):
                raise InternalError("repair walk failed to terminate")
        xn = chase[-1]
        swapped = []
        for u, v in _orbit_pairs(x0, xn, action):
            om[u], om[v] = om[v], om[u]
            swapped.append((u, v))
        swap_log.append({"start": x0, "end": xn, "chase": chase, "swapped": swapped})
    for x0 in c0set:
        if om[x0] not in c1set:
            raise InternalError("repair loop left a bad boundary element")
    return RepairResult(om, tuple(swap_log))


def _check_action_maps(x_plus, x_minus, c0set, c1set, omega, pi, ap, am):
    if set(ap) != set(x_plus) or set(ap.values()) != set(x_plus):
        raise InputError("plus action map is not a permutation of X+")
    if set(am) != set(x_minus) or set(am.values()) != set(x_minus):
        raise InputError("minus action map is not a permutation of X-")
    if {ap[x] for x in c0set} != c0set or {am[y] for y in c1set} != c1set:
        raise InputError("marked subsets are not action stable")
    for x in x_plus:
        if am[omega[x]] != omega[ap[x]]:
            raise InputError("omega is not equivariant for the given action")
    for x in pi:
        if am[pi[x]] != pi[ap[x]]:
            raise InputError("pi is not equivariant for the given action")


def _orbit_pairs(x0, xn, action):
    """All (x0^w, xn^w) over words w in the action; stabilizer consistency
    holds because the chase commutes with the action."""
    pairs = {x0: xn}
    queue = [x0]
    while queue:
        u = queue.pop()
        v = pairs[u]
        for ap, _am in action:
            u2 = ap[u]
            v2 = ap[v]
            if u2 not in pairs:
                pairs[u2] = v2
                queue.append(u2)
            elif pairs[u2] != v2:
                raise InternalError("orbit sweep hit inconsistent endpoints")
    return list(pairs.items())


def pairing_with_repair(G: Group, B: Block) -> tuple[CheckReport, PairingWitness]:
    """Full boundary-surgery demonstration on real data.

    Builds the pair set at maximal defect, the final-term pairing on the
    non-boundary chains, a canonical starting bijection, and repairs it so
    the trivial-chain pairs land on the defect-group-chain pairs.
    """
    p = B.p
    S = pair_set(G, B, G.p_core(p), B.defect)
    plus, minus = S.plus, S.minus
    inputs = {"group": group_document(G), "p": p, "block": B.index, "d": B.defect}
    if len(plus) != len(minus):
        return (CheckReport("pi-pairing", inputs, len(plus), len(minus), "fail",
                            witness={"reason": "signed counts differ; no pairing exists"}),
                PairingWitness(()))
    bounds = boundary_sets(S, B)
    chain_pairs = _surgery(G, B, S, bounds)
    if len(bounds.C0) != len(bounds.C1):
        raise InternalError("boundary sets have different sizes despite count equality")
    omega = dict(zip(plus, minus))
    pi = {(ci, i): (cj, j) for (ci, cj, _n, _m) in chain_pairs
          for i, j in zip(S.chars[ci], S.chars[cj])}
    result = repair_bijection(plus, bounds.C0, minus, bounds.C1, omega, pi)
    witness = PairingWitness(chain_pairs, result.mapping, result.swap_log)
    return CheckReport("pi-pairing", inputs, len(bounds.Jplus), len(bounds.Jminus), "pass",
                       witness={"pairing": witness.pair_documents(),
                                "boundary": {"C0": len(bounds.C0), "C1": len(bounds.C1)},
                                "swaps": len(result.swap_log)}), witness


def pi_pairing_check(G: Group, B: Block) -> CheckReport:
    """pairing_with_repair with its surgery witness, where :func:`_core_mode`
    gives a mode: elsewhere B has no non-boundary chains."""
    if _core_mode(G, B)[0] is None:
        return CheckReport(
            "pi-pairing", {"group": group_document(G), "p": B.p, "block": B.index},
            None, None, "not-applicable",
            witness={"reason": "no non-boundary chains for this block"})
    report, witness = pairing_with_repair(G, B)
    report.witness["surgery"] = witness.to_dict()
    return report


# -- ambient (equivariance) machinery --------------------------------------------------


def _conjugated_classes(G: Group, table, move: np.ndarray, H: Group) -> np.ndarray:
    """The class of H that holds the image of each class representative of
    ``table`` under ``move``, an index map of G."""
    arr = G._array()
    reps = arr.index(np.array([c.rep for c in table.classes], dtype=arr.rows.dtype))
    return H._class_of()[H._array().index(arr.rows[move[reps]])]


def _row_action(Gt, move: np.ndarray) -> list[int]:
    """Row permutation of G's table induced by conjugation with a, given by
    its index map ``move`` = G._conj_move(a)."""
    col = _conjugated_classes(Gt.group, Gt, np.argsort(move), Gt.group)  # a x a^-1
    return [Gt.row_index_of_values(Gt.values[i][col]) for i in range(Gt.r)]


def block_stabilizer(A: Group, G: Group, B: Block) -> tuple[SubgroupHandle, list[int]]:
    """A_B, the stabilizer in A of the block B, as a handle of A, and the A
    indices of the Schreier generators that extend G to it.

    G fixes every block, so A_B is G closed under the Schreier generators of
    the orbit of B under A, and |A_B| |orbit| = |A| certifies it.
    """
    arr = A._array()
    found, hit = arr.lookup(G._array().rows) if A.degree == G.degree else (None, [False])
    if not np.all(hit):
        raise InputError("G must be contained in the ambient group")
    N = A.handle(elements=found.tolist())
    if not A.is_normal(N):
        raise InputError("G must be normal in the ambient group")
    actions = [(arr.perm(a), _row_action(B.table, G._conj_move(a))) for a in A.generators]
    start = frozenset(B.members)
    transversal = {start: np.arange(A.degree, dtype=arr.rows.dtype)}  # as rows
    queue = [start]
    schreier = []
    for s in queue:  # grows while it is read
        for ga, action in actions:
            t = frozenset(action[i] for i in s)
            ug = ga[transversal[s]]  # the row of u*g
            if t in transversal:
                schreier.append(np.argsort(transversal[t])[ug])  # u*g*t^-1
            else:
                transversal[t] = ug
                queue.append(t)
    found = arr.index(np.array(schreier, dtype=arr.rows.dtype).reshape(-1, A.degree))
    # G is normal in A, so right multiplication by G maps each coset K*y of
    # a K >= G to itself, and _extend needs no generators of G
    inside, gens = A._extend(_member_mask(A.order, N.elements), [], found.tolist())
    stab = A.handle(elements=np.flatnonzero(inside).tolist())
    if stab.order * len(transversal) != A.order:
        raise InternalError("block stabilizer has wrong order")
    return stab, gens


def ambient_orbit_sizes(G: Group, A: Group, B: Block, S: PairSet):
    """Orbit-size multisets of the A_B action on the signed pair orbits.
    G fixes every pair orbit, so A_B acts through its generators modulo G."""
    rows = A._array().rows
    moves = [G._conj_rows(rows[x]) for x in block_stabilizer(A, G, B)[1]]
    start = np.array(sorted(S.start.elements))
    if any((np.sort(move[start]) != start).any() for move in moves):
        raise InputError("the ambient block stabilizer must normalise the chain start")
    return tuple(_orbit_sizes_on_pairs(G, S, pairs, moves) for pairs in (S.plus, S.minus))


def _orbit_sizes_on_pairs(G: Group, S: PairSet, pairs, moves) -> list[int]:
    """Orbit sizes on ``pairs`` of the automorphisms with index maps
    ``moves``; each image (sigma, theta)^a is identified against the stored
    chain representatives and the rows of their stabilizers' tables."""
    position = {pr: n for n, pr in enumerate(pairs)}
    images = []
    for move in moves:
        chain_images: dict = {}
        image = []
        for ci, i in pairs:
            if ci not in chain_images:
                chain_images[ci] = _chain_image(G, S, ci, move)
            j, col = chain_images[ci]
            values = S.stabilizer_table(ci).values[i][col]
            target = (j, S.stabilizer_table(j).row_index_of_values(values))
            if target not in position:
                raise InternalError("ambient action left the pair set")
            image.append(position[target])
        images.append(np.array(image, dtype=np.intp))
    return np.unique(_orbit_labels(len(pairs), images), return_counts=True)[1].tolist()


def _chain_image(G: Group, S: PairSet, ci: int, move: np.ndarray):
    """(j, col) for chain_ci conjugated by the a with index map ``move``:
    some m = a*g with g in G conjugates chain_ci onto the rep of orbit j,
    and col[k] is the class of orbit ci's stabilizer that holds m x_k m^-1
    for the representative x_k of class k of orbit j's stabilizer.

    m is found down the chain tree from the start term, which a fixes: each
    next term's image K names a child j' of orbit j, and a transporter finds
    the least g in j's stabilizer with final_j'^g = K; m becomes m*g^-1."""
    j, m = 0, move
    for t in S.orbits[ci].chain.terms[1:]:
        K, among = m[list(t.elements)], sorted(S.orbits[j].stabilizer.elements)
        j = _child_orbit(G, S.orbits, j, K)  # so some g in among has final_j^g = K
        mask = G._transporter(S.orbits[j].chain.final.generators, _member_mask(G.order, K), among)
        m = G._conj_rows(G._array().inv[among[int(np.argmax(mask))]])[m]
    dst = character_table(S.orbits[j].stabilizer.as_group())
    return j, _conjugated_classes(G, dst, np.argsort(m), S.orbits[ci].stabilizer.as_group())
