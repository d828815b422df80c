"""Built-in group catalogue and group-definition files.

Catalogue names (case-insensitive):

* ``C<n>``   cyclic of order n, natural action on n points
* ``D<n>``   dihedral symmetries of the regular n-gon (order 2n, n >= 3)
* ``S<n>``   symmetric group, n <= 7
* ``A<n>``   alternating group, n <= 7
* ``Q8``     quaternion group, regular action on 8 points
* ``SL23``   SL(2,3) acting on the 8 nonzero vectors of F_3^2
* ``F20``    Frobenius group C5:C4 on 5 points
* ``F21``    Frobenius group C7:C3 on 7 points
* ``Dic3``   dicyclic group of order 12 (realized as C3:C4)

Names can be combined with ``x`` or ``X`` for direct products acting on
disjoint points, e.g. ``C2xA4``; an empty factor is an error.  General split
metacyclic groups are available through :func:`semidirect_cyclic`.

Group-definition files are plain text::

    # comment lines start with '#'
    degree: 7
    generators: (0 1 2 3 4 5 6); (1 2 4)(3 6 5)

Generators are written in 0-based disjoint-cycle notation and separated by
``;`` or newlines after the ``generators:`` header.  ``()`` is the identity.
A header is its key word followed by ``:``, whitespace or the end of the
line, and the rest of the line is its content; there is one ``degree`` line.
"""

from __future__ import annotations

import re
from math import gcd

from .config import DEFAULT_LIMITS, Limits
from .errors import InputError
from .groups import Group
from .perms import Perm, parse_perm_list

__all__ = [
    "library_group",
    "acceptance_corpus",
    "direct_product",
    "semidirect_cyclic",
    "parse_group_file",
]


def cyclic(n: int) -> tuple:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    return n, [tuple(range(1, n)) + (0,)]  # the identity when n = 1


def dihedral(n: int) -> tuple:
    """Symmetries of the regular n-gon: order 2n on n points."""
    if n < 3:
        raise InputError("dihedral group needs n >= 3 vertices")
    rot = tuple(range(1, n)) + (0,)
    ref = tuple((n - i) % n for i in range(n))
    return n, [rot, ref]


def symmetric(n: int) -> tuple:
    if n < 1 or n > 7:
        raise InputError("symmetric groups are provided for degree 1..7")
    if n == 1:
        return 1, []
    # a transposition and an n-cycle; Group keeps one of them when n = 2
    return n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def alternating(n: int) -> tuple:
    if n < 1 or n > 7:
        raise InputError("alternating groups are provided for degree 1..7")
    if n <= 2:
        return n, []
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:  # the n-cycle, which is ``three`` when n = 3
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return n, [three, big]


def quaternion() -> tuple:
    """Q8 in its regular action; points are 1,-1,i,-i,j,-j,k,-k."""
    gen_i = (2, 3, 1, 0, 6, 7, 5, 4)
    gen_j = (4, 5, 7, 6, 1, 0, 2, 3)
    return 8, [gen_i, gen_j]


def sl23() -> tuple:
    """SL(2,3) on the 8 nonzero vectors of F_3^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def act(mat):
        (a, b), (c, d) = mat
        return tuple(
            index[((a * x + b * y) % 3, (c * x + d * y) % 3)] for (x, y) in vecs
        )

    s = act(((0, 2), (1, 0)))
    t = act(((1, 1), (0, 1)))
    return 8, [s, t]


def _semidirect(m: int, n: int, k: int) -> tuple:
    """(degree, generators) of :func:`semidirect_cyclic`."""
    if m < 2 or n < 2:
        raise InputError("semidirect factors must have order >= 2")
    if pow(k, n, m) != 1 or gcd(k, m) != 1:
        raise InputError(f"k={k} does not define an order-dividing action on C{m}")
    degree = m + n
    a = tuple((i + 1) % m for i in range(m)) + tuple(range(m, degree))
    b_head = tuple((k * i) % m for i in range(m))
    b_tail = tuple(m + ((i - m + 1) % n) for i in range(m, degree))
    return degree, [a, b_head + b_tail]


def semidirect_cyclic(m: int, n: int, k: int, limits: Limits = DEFAULT_LIMITS) -> Group:
    """C_m : C_n where the C_n generator acts on C_m by x -> k*x.

    Acts faithfully on m + n points: the natural m-cycle plus an n-cycle on
    fresh points that carries the multiplication action.
    """
    g = Group(*_semidirect(m, n, k), limits=limits)
    if g.order != m * n:
        raise InputError("semidirect construction did not close at order m*n")
    return g


def frobenius20() -> tuple:
    return 5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]


def frobenius21() -> tuple:
    mul2 = tuple((2 * i) % 7 for i in range(7))
    return 7, [tuple(range(1, 7)) + (0,), mul2]


def _product(factors) -> tuple:
    """(degree, generators) of the direct product of factors given as
    (degree, generators), acting on the disjoint union of their points."""
    degree = sum(d for d, _ in factors)
    gens = []
    offset = 0
    for d, factor_gens in factors:
        before = tuple(range(offset))
        after = tuple(range(offset + d, degree))
        for p in factor_gens:
            gens.append(before + tuple(x + offset for x in p) + after)
        offset += d
    return degree, gens


def direct_product(*groups: Group, limits: Limits = DEFAULT_LIMITS) -> Group:
    """Direct product acting on the disjoint union of the factors' points."""
    if not groups:
        raise InputError("direct product needs at least one factor")
    return Group(*_product([(g.degree, g.generators) for g in groups]), limits=limits)


_ATOM_RE = re.compile(r"^(C|D|S|A)(\d+)$", re.IGNORECASE)

_FIXED = {
    "Q8": quaternion,
    "SL23": sl23,
    "F20": frobenius20,
    "F21": frobenius21,
    "DIC3": lambda: _semidirect(3, 4, 2),
}


def _atom(name: str) -> tuple:
    """(degree, generators) of a catalogue name without ``x``."""
    upper = name.upper()
    if upper in _FIXED:
        return _FIXED[upper]()
    m = _ATOM_RE.match(name)
    if not m:
        raise InputError(f"unknown library group {name!r}")
    kind, n = m.group(1).upper(), int(m.group(2))
    if kind == "C":
        return cyclic(n)
    if kind == "D":
        return dihedral(n)
    if kind == "S":
        return symmetric(n)
    return alternating(n)


def library_group(name: str, limits: Limits = DEFAULT_LIMITS) -> Group:
    """Resolve a catalogue name, possibly an ``x``-product of atoms."""
    parts = [p.strip() for p in re.split(r"[xX]", name.strip())]
    if not all(parts):
        raise InputError(f"library group name {name!r} has an empty factor")
    return Group(*_product([_atom(p) for p in parts]), limits=limits)


def acceptance_corpus() -> list[str]:
    """The fixed corpus used by the acceptance suite: library names, order <= 200."""
    return [
        "C1", "C2", "C3", "C4", "C5", "C6", "C8", "C9", "C10", "C12",
        "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3",
        "D4", "D5", "D6", "D7", "D8", "D10",
        "S3", "S4", "S5", "A4", "A5",
        "Q8", "SL23", "F20", "F21", "Dic3",
        "C2xA4", "C3xS3", "C2xD4", "C2xQ8",
    ]


_HEADER_RE = re.compile(r"(degree|generators)(?:\s*:|\s|$)(.*)", re.IGNORECASE)


def parse_group_file(text: str, limits: Limits = DEFAULT_LIMITS) -> Group:
    """Parse the group-definition file format documented in this module."""
    degree = None
    gen_text: list[str] = []
    in_gens = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.fullmatch(line)
        key = header and header[1].lower()
        if key == "degree":
            if degree is not None:
                raise InputError(f"second degree line {raw!r}")
            try:
                degree = int(header[2])
            except ValueError:
                raise InputError(f"bad degree line {raw!r}") from None
            in_gens = False
        elif key == "generators":
            if header[2].strip():
                gen_text.append(header[2].strip())
            in_gens = True
        elif in_gens:
            gen_text.append(line)
        else:
            raise InputError(f"unrecognized line in group file: {raw!r}")
    if degree is None:
        raise InputError("group file is missing a 'degree:' line")
    gens: list[Perm] = []
    for chunk in gen_text:
        gens.extend(parse_perm_list(chunk, degree))
    return Group(degree, gens, limits=limits)
