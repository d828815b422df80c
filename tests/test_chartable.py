"""Character tables against independent exact recomputation.

The construction path runs over F_ell and lifts; the oracle here redoes
orthogonality with Cyclo arithmetic over Q(zeta_e) from scratch.  M12,
past the default order ceiling, is read from a group file and checked
against the ATLAS.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cyclo_oracle import Cyclo, entry, inner_product, row
from pblocks.chartable import character_table, defects, galois_matrix, p_prime_degree_set
from pblocks.cli import run
from pblocks.errors import InputError
from pblocks.perms import parse_cycles
from pblocks.reports import SCHEMA_VERSION, canonical_json, table_document


def galois_row_permutation(table, k: int) -> list[int]:
    """Row permutation induced by zeta -> zeta^k, or raise if rows move out."""
    gm = galois_matrix(table.conductor, k)
    mapped = np.tensordot(table.values, gm, axes=([2], [0]))
    return [table.row_index_of_values(mapped[i]) for i in range(table.r)]


def table_from_document(doc: dict) -> dict:
    """Parse a table document back into plain exact data (round-trip safe)."""
    if doc.get("schema") != SCHEMA_VERSION + "/table":
        raise InputError("not a table document")
    return {
        "conductor": int(doc["conductor"]),
        "degrees": [int(d) for d in doc["degrees"]],
        "values": [
            [[int(x) for x in cell] for cell in row] for row in doc["values"]
        ],
        "classes": [
            (c["rep"], int(c["size"]), int(c["centralizer_order"]))
            for c in doc["classes"]
        ],
        "group": doc["group"],
        "lift": doc["lift"],
    }


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("C1", [1]),
        ("C2", [1, 1]),
        ("S3", [1, 1, 2]),
        ("A4", [1, 1, 1, 3]),
        ("S4", [1, 1, 2, 3, 3]),
        ("A5", [1, 3, 3, 4, 5]),
        ("Q8", [1, 1, 1, 1, 2]),
        ("SL23", [1, 1, 1, 2, 2, 2, 3]),
        ("D4", [1, 1, 1, 1, 2]),
        ("F20", [1, 1, 1, 1, 4]),
        ("F21", [1, 1, 1, 3, 3]),
        ("S5", [1, 1, 4, 4, 5, 5, 6]),
        ("Dic3", [1, 1, 1, 1, 2, 2]),
        ("C2xC2xC2", [1] * 8),
    ],
)
def test_degrees(grp, name, degrees):
    table = character_table(grp(name))
    assert table.degrees == degrees
    assert sum(d * d for d in degrees) == table.group.order


def test_c2_rows(grp):
    table = character_table(grp("C2"))
    rows = [[entry(table, i, k) for k in range(2)] for i in range(2)]
    flat = sorted(tuple(v.as_fraction() for v in row) for row in rows)
    assert flat == [(1, -1), (1, 1)]


def exact_inner(table, i, j):
    total = Cyclo.zero()
    for k, c in enumerate(table.classes):
        total = total + entry(table, i, k) * entry(table, j, k).conjugate() * c.size
    return total / table.group.order


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "A5", "Q8", "SL23", "F20", "C12"])
def test_orthogonality_recomputed_exactly(grp, name):
    table = character_table(grp(name))
    for i in range(table.r):
        for j in range(table.r):
            expected = Cyclo.one() if i == j else Cyclo.zero()
            assert exact_inner(table, i, j) == expected
    # column orthogonality with exact arithmetic
    for k in range(table.r):
        for l in range(table.r):
            total = Cyclo.zero()
            for i in range(table.r):
                total = total + entry(table, i, k) * entry(table, i, l).conjugate()
            if k == l:
                assert total == Cyclo.from_rational(table.classes[k].centralizer_order)
            else:
                assert total == Cyclo.zero()


def test_a5_golden_ratio_entries(grp):
    table = character_table(grp("A5"))
    irrational = [
        entry(table, i, k)
        for i in range(5)
        for k in range(5)
        if table.degrees[i] == 3 and not entry(table, i, k).is_rational()
    ]
    assert len(irrational) == 4  # two degree-3 rows, two classes of 5-cycles
    one = Cyclo.one()
    for v in irrational:
        assert v * v - v - one == Cyclo.zero()  # both roots of x^2 - x - 1
    # the two degree-3 rows are swapped by the Galois map fixing Q(sqrt 5) setwise
    perm = galois_row_permutation(table, 7)  # 7 = 1 mod 3, 2 mod 5
    deg3 = [i for i in range(5) if table.degrees[i] == 3]
    assert sorted(perm[i] for i in deg3) == deg3
    assert any(perm[i] != i for i in deg3)


def test_galois_stability(grp):
    for name in ["S3", "A5", "SL23", "C12", "F20"]:
        table = character_table(grp(name))
        e = table.conductor
        for k in range(1, e):
            if _gcd(k, e) == 1:
                perm = galois_row_permutation(table, k)
                assert sorted(perm) == list(range(table.r))


def test_canonical_row_order_deterministic(grp):
    from pblocks.library import library_group

    a = character_table(library_group("SL23"))
    b = character_table(library_group("SL23"))
    assert canonical_json(table_document(a)) == canonical_json(table_document(b))
    keys = [(a.degrees[i], tuple(int(x) for x in a.values[i].reshape(-1)))
            for i in range(a.r)]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "name,p,expected",
    [
        ("A5", 2, {0: 2, 3: 2, 4: 0}),  # degree 1 -> d 2, degree 4 -> d 0
        ("S4", 2, {"deg2": 2}),
        ("C12", 3, {0: 1}),
    ],
)
def test_defect_examples(grp, name, p, expected):
    table = character_table(grp(name))
    if name == "A5":
        assert defects(table, 2)[0] == 2  # trivial: log_2 |A5|_2
        deg4 = table.degrees.index(4)
        assert defects(table, 2)[deg4] == 0
    if name == "S4":
        deg2 = table.degrees.index(2)
        assert defects(table, 2)[deg2] == 2
    if name == "C12":
        assert defects(table, 3)[0] == 1


def test_trivial_character_defect_is_full(grp):
    for name, p in [("S4", 2), ("A5", 2), ("A5", 5), ("F21", 7)]:
        table = character_table(grp(name))
        i = table.trivial_index()
        assert defects(table, p)[i] == _nu(table.group.order, p)


def test_defect_needs_a_prime(grp):
    table = character_table(grp("S4"))
    for p in (4, 1, 4):  # the prime check is cached; a repeat still raises
        with pytest.raises(InputError):
            defects(table, p)
    assert defects(table, 3)[0] == 1
    for p in (4, 6, 4):  # refused on every call, also after a prime was cached
        with pytest.raises(InputError):
            defects(table, p)
        with pytest.raises(InputError):
            p_prime_degree_set(table, p)


@pytest.mark.parametrize("name,p", [("S4", 2), ("A5", 5), ("SL23", 3), ("C12", 2)])
def test_defects_are_one_cached_tuple_of_ints(grp, name, p):
    table = character_table(grp(name))
    d = defects(table, p)
    assert type(d) is tuple and len(d) == table.r
    assert all(type(f) is int for f in d)
    assert defects(table, p) is d
    full = _nu(table.group.order, p)
    assert list(d) == [full - _nu(deg, p) for deg in table.degrees]


@pytest.mark.parametrize("name", ["C1", "S1", "A2"])
def test_trivial_group_table(grp, name):
    """The order-1 table goes through the general construction and keeps
    the record it was written down with: prime 3, root 2, power 1."""
    doc = table_document(character_table(grp(name)))
    assert doc["conductor"] == 1
    assert doc["degrees"] == [1]
    assert doc["values"] == [[[1]]]
    assert doc["lift"] == {"prime": 3, "primitive_root": 2, "unit_root_power": 1}


def test_p_prime_degree_sets(grp):
    t5 = character_table(grp("A5"))
    odd = p_prime_degree_set(t5, 2)
    assert sorted(t5.degrees[i] for i in odd) == [1, 3, 3, 5]
    assert all(defects(t5, 2)[i] == 2 for i in odd)
    t4 = character_table(grp("S4"))
    assert sorted(t4.degrees[i] for i in p_prime_degree_set(t4, 2)) == [1, 1, 3, 3]
    # abelian p-group: every character has p'-degree
    t8 = character_table(grp("C2xC2xC2"))
    assert len(p_prime_degree_set(t8, 2)) == 8


def test_inner_product_examples(grp):
    table = character_table(grp("S3"))
    for i in range(table.r):
        assert inner_product(table, row(table, i), row(table, i)) == Cyclo.one()
    # regular character decomposes with multiplicities = degrees
    reg = [Cyclo.from_rational(table.group.order if k == 0 else 0)
           for k in range(table.r)]
    for i in range(table.r):
        assert inner_product(table, reg, row(table, i)) == Cyclo.from_rational(
            table.degrees[i])
    # natural permutation character of S3 on 3 points contains the trivial once
    natural = []
    for c in table.classes:
        fixed = sum(1 for pt in range(3) if c.rep[pt] == pt)
        natural.append(Cyclo.from_rational(fixed))
    triv = table.trivial_index()
    assert inner_product(table, natural, row(table, triv)) == Cyclo.one()
    with pytest.raises(InputError):
        inner_product(table, natural[:-1], row(table, 0))


def test_table_document_round_trip(grp):
    table = character_table(grp("A5"))
    doc = table_document(table)
    text = canonical_json(doc)
    import json

    parsed = table_from_document(json.loads(text))
    assert parsed["degrees"] == table.degrees
    assert parsed["conductor"] == table.conductor
    rebuilt = {
        "schema": "pblocks/1/table",
        "group": parsed["group"],
        "conductor": parsed["conductor"],
        "classes": [
            {"rep": r, "size": s, "centralizer_order": c}
            for (r, s, c) in parsed["classes"]
        ],
        "degrees": parsed["degrees"],
        "values": parsed["values"],
        "lift": parsed["lift"],
    }
    assert canonical_json(rebuilt) == text


def test_exponent(grp):
    assert character_table(grp("A5")).conductor == 30
    assert character_table(grp("S4")).conductor == 12
    assert character_table(grp("Q8")).conductor == 4


def test_m12_from_a_group_file_has_the_atlas_table(capsys):
    # M12 is past the default order ceiling; its class centralizer orders
    # and degrees are those of the ATLAS of Finite Groups
    path = Path(__file__).parent / "fixtures" / "groups" / "M12.txt"
    assert run(["table", "--group", str(path), "--max-order", "100000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"]["order"] == 95040
    result = doc["result"]
    assert result["conductor"] == 1320
    assert sorted(c["centralizer_order"] for c in result["classes"]) == \
        [6, 8, 8, 10, 10, 11, 11, 12, 32, 32, 36, 54, 192, 240, 95040]
    assert result["degrees"] == [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _nu(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
