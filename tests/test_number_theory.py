"""Primality, primitive roots and cyclotomic factors against sympy.

The table lift embeds its splitting prime and that prime's least primitive
root in every report, and the block partition embeds the least factor of
Phi_e' mod p; all three must equal what sympy computes.  The corpus tables
are compared in ``test_kernels``; here the routines are swept over bounded
ranges.
"""

import random
from functools import reduce

import numpy as np
import pytest
from sympy import isprime, n_order, primerange, primitive_root

from kernel_oracles import sympy_canonical_factor
from pblocks.blockfield import _canonical_factor, _equal_degree_factors
from pblocks.chartable import _MR_BOUND, _check_prime, _is_prime, _primitive_root
from pblocks.cyclotomic import cyclotomic_poly
from pblocks.errors import InputError, ResourceError

LARGE = [2**31 - 1, 2**61 - 1, 10**18 + 9, 3215031751, 341550071728321,
         3825123056546413051, 10**24 + 7, _MR_BOUND - 2]


def test_primality_matches_sympy():
    assert [n for n in range(20000) if _is_prime(n)] == list(primerange(20000))
    for n in LARGE:
        assert _is_prime(n) == isprime(n), n


def test_primality_bound_is_a_resource_error():
    for n in (_MR_BOUND, 10**30 + 57):
        with pytest.raises(ResourceError, match=str(_MR_BOUND)):
            _check_prime(n)
    # a multiple of a base is refused as composite at any size
    for n in (-3, 0, 1, 4, _MR_BOUND - 1, _MR_BOUND + 1, _MR_BOUND + 2, 41 * 10**30):
        with pytest.raises(InputError, match="is not a prime"):
            _check_prime(n)


def test_least_primitive_root_matches_sympy():
    for ell in primerange(20000):
        assert _primitive_root(ell) == primitive_root(ell), ell


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_factor_matches_sympy(p):
    # sympy's factor_list costs about 5 s over e1 <= 100; the certificate
    # below covers that range
    for e1 in range(1, 41):
        if e1 % p:
            assert _canonical_factor(e1, p) == sympy_canonical_factor(e1, p), e1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_set_is_certified(p):
    """Every irreducible factor of Phi_e1 mod p has degree f = ord_e1(p), so
    distinct monic degree-f polynomials whose product is Phi_e1 mod p are
    exactly its irreducible factors.  Splitting with another seed must find
    them, and the canonical factor is their least."""
    for e1 in range(1, 101):
        if e1 % p:
            f = n_order(p, e1) if e1 > 1 else 1
            phi = [c % p for c in cyclotomic_poly(e1)]
            factors = _equal_degree_factors(phi, f, p, random.Random(1))
            assert len(set(factors)) == len(factors), e1
            assert all(len(q) == f + 1 and q[-1] == 1 for q in factors), e1
            product = reduce(lambda a, q: np.convolve(a, q) % p, factors, [1])
            assert product.tolist() == phi, e1
            assert _canonical_factor(e1, p) == min(factors), e1
