"""p-blocks: the partition of Irr(G), defects, defect groups, and Brauer maps.

Two irreducible characters lie in the same p-block iff their central
characters agree after reduction modulo a fixed prime ideal over p; the
reduction is the canonical one provided by :mod:`pblocks.blockfield`.  The
reduced central characters of a table are one integer array [r, r, f],
lam[i, k] the image of omega_i(K_k), built by one matrix product per prime.

Character defects come from :func:`pblocks.chartable.defects`, and
:func:`heights` gives one int per block member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockfield import block_field
from .chartable import CharTable, _element_orders, character_table, defects
from .cyclotomic import _nu
from .errors import InputError, InternalError
from .groups import Group, SubgroupHandle, _cached

__all__ = [
    "Block",
    "p_blocks",
    "block_of",
    "heights",
    "irr0",
    "brauer_induce",
    "brauer_correspondent",
    "is_central_defect",
]


@dataclass
class Block:
    """One p-block of a character table."""

    table: CharTable
    p: int
    index: int
    members: tuple  # row indices
    defect: int
    defect_group: SubgroupHandle
    lam: np.ndarray  # [r, f]: lam(K) per class, the same for every member
    is_principal: bool

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.table is other.table
            and self.p == other.p
            and self.index == other.index
        )

    def __hash__(self):
        return hash((id(self.table), self.p, self.index))

    def __repr__(self) -> str:
        degs = [self.table.degrees[i] for i in self.members]
        return (f"Block(p={self.p}, index={self.index}, degrees={degs}, "
                f"defect={self.defect})")

    @property
    def group(self) -> Group:
        return self.table.group


@_cached
def omega_int_vectors(table: CharTable) -> np.ndarray:
    """omega values of every row as integer coefficient vectors [r, r, phi];
    cached on the table.

    Central character values are algebraic integers; if the division by the
    degree is not exact the table is corrupt.
    """
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    degs = np.array(table.degrees, dtype=np.int64)[:, None, None]
    scaled = table.values * sizes[:, None]
    if np.any(scaled % degs):
        raise InternalError("central character is not an algebraic integer")
    return scaled // degs


@_cached
def p_blocks(table: CharTable, p: int) -> tuple[Block, ...]:
    """The p-block partition, principal block first; cached on the table."""
    lams = block_field(p, table.conductor).reduce_int_vector(
        omega_int_vectors(table), table.conductor)
    if (lams[:, 0, 0] != 1).any() or lams[:, 0, 1:].any():
        raise InternalError("reduced central character is not 1 at the identity")
    lam_of: dict[bytes, list[int]] = {}
    for i in range(table.r):
        lam_of.setdefault(lams[i].tobytes(), []).append(i)

    trivial = table.trivial_index()
    defect = defects(table, p)
    groups = sorted(lam_of.values(), key=lambda ms: (trivial not in ms, min(ms)))
    blocks = []
    for bi, members in enumerate(groups):
        members = tuple(sorted(members))
        d = max(defect[i] for i in members)
        dg = _defect_group(table, p, lams[members[0]], d)
        blocks.append(
            Block(
                table=table,
                p=p,
                index=bi,
                members=members,
                defect=d,
                defect_group=dg,
                lam=lams[members[0]],
                is_principal=trivial in members,
            )
        )
    if sum(len(b.members) for b in blocks) != table.r:
        raise InternalError("block partition does not cover the table")
    if sum(1 for b in blocks if b.is_principal) != 1:
        raise InternalError("principal block is not unique")
    return tuple(blocks)


def _defect_group(table: CharTable, p: int, lam: np.ndarray, d: int) -> SubgroupHandle:
    """Sylow p-subgroup of the centralizer of a defect-class element."""
    dg = _centralizer_sylow(table.group, p, table.classes[_defect_class(table, p, lam)].rep)
    if dg.order != p**d:
        raise InternalError(
            "defect group from the defect class disagrees with the member defects"
        )
    return dg


@_cached
def _centralizer_sylow(G: Group, p: int, rep: tuple) -> SubgroupHandle:
    """A Sylow p-subgroup of C_G(rep), grown once per (p, rep) and cached on
    G, so the blocks that share a defect class share its handle."""
    return G.handle(elements=G._sylow_in(p, np.flatnonzero(G._commutes_with(rep))))


def _defect_class(table: CharTable, p: int, lam: np.ndarray) -> int:
    """Index of a defect class of the block with reduced central character lam.

    A defect class is a p-regular class with lam(K) != 0 whose size has
    maximal p-part; ties are broken by canonical class order.
    """
    orders = _element_orders(table)
    regular = np.flatnonzero(lam.any(axis=1) & (orders % p != 0)).tolist()
    if not regular:
        raise InternalError("block has no p-regular class with nonzero central character")
    # max keeps the first of equal keys
    return max(regular, key=lambda k: _nu(table.classes[k].size, p))


def block_of(table: CharTable, p: int, index: int) -> Block:
    for b in p_blocks(table, p):
        if index in b.members:
            return b
    raise InternalError("character belongs to no block")


def heights(block: Block) -> tuple[int, ...]:
    """ht(chi) = d(B) - d(chi) >= 0 for every member, in member order."""
    defect = defects(block.table, block.p)
    out = tuple(block.defect - defect[i] for i in block.members)
    if min(out) < 0:
        raise InternalError("negative height; block defect is wrong")
    return out


def irr0(block: Block) -> tuple[int, ...]:
    """Members of height zero (equivalently of maximal defect in the block)."""
    return tuple(i for i, h in zip(block.members, heights(block)) if h == 0)


def is_central_defect(block: Block) -> bool:
    center = block.group.center()
    return block.defect_group.elements <= center.elements


def brauer_induce(b: Block, G: Group) -> Block | None:
    """b^G: the block of G whose central character matches the induced one.

    Returns None when the induced class function is the central character
    of no block of G (induction undefined).
    """
    H = b.group
    arr = G._array()
    if H.degree != G.degree or not arr.lookup(
            arr.perm(H.generators).reshape(-1, G.degree))[1].all():
        raise InputError("can only induce from a subgroup")
    Gt = character_table(G)
    if Gt.conductor % b.table.conductor:
        raise InternalError("subgroup exponent does not divide the group exponent")
    field = block_field(b.p, Gt.conductor)
    lam_h = field.reduce_int_vector(omega_int_vectors(b.table)[b.members[0]],
                                    b.table.conductor)
    reps = np.array([hc.rep for hc in b.table.classes], dtype=arr.rows.dtype)
    acc = np.zeros((Gt.r, field.f), dtype=np.int64)
    np.add.at(acc, G._class_of()[arr.index(reps)], lam_h)
    acc %= b.p
    for B in p_blocks(Gt, b.p):
        if np.array_equal(B.lam, acc):
            return B
    return None


def brauer_correspondent(B: Block, D: SubgroupHandle | None = None) -> Block:
    """The unique block b of N_G(D) with b^G = B and defect group D.

    Uniqueness is a theorem (first main theorem); zero or several candidates
    signal an arithmetic bug and raise.
    """
    G = B.group
    D = D or B.defect_group
    if D.canonical_key != B.defect_group.canonical_key:
        raise InputError("D is not a defect group of this block")
    N = G.normalizer(D)
    Nt = character_table(N.as_group())
    candidates = []
    for b in p_blocks(Nt, B.p):
        if b.defect != B.defect:
            continue
        if N.lift(b.defect_group) != D:
            continue
        if brauer_induce(b, G) == B:
            candidates.append(b)
    if len(candidates) != 1:
        raise InternalError(
            f"Brauer correspondence found {len(candidates)} candidates, expected 1"
        )
    return candidates[0]
