#!/usr/bin/env python3
"""Walk through the full pipeline on the alternating group A5 at p = 2.

Covers: exact character table, 2-blocks with defect groups, normal 2-chains
up to conjugacy, the signed pair families at maximal defect, and the
height-zero count across the Brauer correspondence.
"""

from math import cos, pi

from pblocks.blocks import brauer_correspondent, heights, irr0, p_blocks
from pblocks.chains import pair_set
from pblocks.chartable import character_table
from pblocks.conjectures import verify_am_count, verify_pair_count
from pblocks.library import library_group
from pblocks.perms import format_cycles

G = library_group("A5")
print(f"A5 on 5 points, order {G.order}")
print(f"class sizes: {[c.size for c in G.conjugacy_classes()]}")

table = character_table(G)
print(f"\ncharacter degrees: {table.degrees}  (conductor {table.conductor})")
print("the degree-3 rows contain the two roots of x^2 - x - 1 on the 5-cycles:")
for i in range(table.r):
    if table.degrees[i] == 3:
        # real part of sum_j c_j z^j, z = exp(2 pi i / e), over the power basis
        reals = [sum(int(c) * cos(2 * pi * j / table.conductor)
                     for j, c in enumerate(table.values[i, k]))
                 for k in range(table.r)]
        print("  ", [str(round(x, 3)) for x in reals])

blocks = p_blocks(table, 2)
print("\n2-blocks:")
for b in blocks:
    degs = [table.degrees[i] for i in b.members]
    print(f"  block {b.index}: degrees {degs}, defect {b.defect}, "
          f"defect group of order {b.defect_group.order}"
          f"{' (principal)' if b.is_principal else ''}")

B = blocks[0]
Z = G.trivial_subgroup()
S = pair_set(G, B, Z, B.defect)
print(f"\nnormal 2-chain orbits from the trivial subgroup:")
for o in S.orbits:
    terms = " < ".join(str(t.order) for t in o.chain.terms)
    print(f"  [{terms}]  sign {'+' if o.sign > 0 else '-'}  "
          f"stabilizer order {o.stabilizer.order}  orbit size {o.orbit_size}")
print(f"signed pair-orbit counts at d = {B.defect}: "
      f"{len(S.plus)} (+) vs {len(S.minus)} (-)")

print("\ncounting checks:")
rep = verify_pair_count(G, B, Z, B.defect)
print(f"  pair-count: {rep.verdict} ({rep.left} = {rep.right})")
rep = verify_am_count(G, B)
print(f"  height-zero count vs N_G(D): {rep.verdict} ({rep.left} = {rep.right})")
b = brauer_correspondent(B)
print(f"  correspondent lives in a group of order {b.group.order} "
      f"with height-zero degrees {[b.table.degrees[i] for i in irr0(b)]}")
print(f"  all heights in the principal block: "
      f"{list(heights(B))}")
