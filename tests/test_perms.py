import random

import pytest

from pblocks.errors import InputError
from kernel_oracles import conj, ppow
from pblocks.perms import (
    format_cycles,
    identity,
    parse_cycles,
    parse_perm_list,
    perm_order,
    pinv,
    pmul,
    validate_perm,
)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_validate_rejects_non_bijections():
    with pytest.raises(InputError):
        validate_perm((0, 0, 1))
    with pytest.raises(InputError):
        validate_perm((0, 2), degree=3)
    assert validate_perm([1, 0]) == (1, 0)


def test_identity_and_inverse():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 12)
        p = random_perm(rng, n)
        assert pmul(p, pinv(p)) == identity(n)
        assert pmul(pinv(p), p) == identity(n)
        assert pmul(p, identity(n)) == p


def test_associativity_and_power():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 10)
        p, q, r = (random_perm(rng, n) for _ in range(3))
        assert pmul(pmul(p, q), r) == pmul(p, pmul(q, r))
        k = rng.randrange(-6, 7)
        expected = identity(n)
        for _ in range(abs(k)):
            expected = pmul(expected, p if k > 0 else pinv(p))
        assert ppow(p, k) == expected


def test_conjugation_is_an_action():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(2, 10)
        x, a, b = (random_perm(rng, n) for _ in range(3))
        assert conj(conj(x, a), b) == conj(x, pmul(a, b))
        assert perm_order(conj(x, a)) == perm_order(x)


def test_cycle_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 12)
        p = random_perm(rng, n)
        assert parse_cycles(format_cycles(p), n) == p


def test_parse_cycles_grammar():
    assert parse_cycles("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("(0, 1, 2)", 3) == (1, 2, 0)
    assert parse_cycles("()", 4) == identity(4)
    # left-to-right composition of overlapping cycles
    assert parse_cycles("(0 1)(1 2)", 3) == pmul(parse_cycles("(0 1)", 3),
                                                 parse_cycles("(1 2)", 3))
    with pytest.raises(InputError):
        parse_cycles("(0 1) junk", 3)
    with pytest.raises(InputError):
        parse_cycles("(0 5)", 3)
    with pytest.raises(InputError):
        parse_cycles("(0 0 1)", 3)


def test_parse_perm_list():
    perms = parse_perm_list("(0 1 2 3 4); (0 1 2)", 5)
    assert len(perms) == 2
    perms2 = parse_perm_list("(0 1)(2 3), (0 2)(1 3)", 4)
    assert perms2 == [(1, 0, 3, 2), (2, 3, 0, 1)]
    with pytest.raises(InputError):
        parse_perm_list("(0 1", 3)
