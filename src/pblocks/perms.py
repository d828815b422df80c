"""Permutations on 0-based points, stored as image tuples.

A permutation of degree n is a tuple ``p`` of length n with ``p[i]`` the
image of point ``i``.  Composition is left to right: ``pmul(p, q)`` applies
``p`` first.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError

Perm = tuple  # tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def validate_perm(images: Sequence[int], degree: int | None = None) -> Perm:
    """Check that an image list is a bijection and return it as a tuple."""
    p = tuple(images)
    n = len(p)
    if degree is not None and n != degree:
        raise InputError(f"permutation has degree {n}, expected {degree}")
    if sorted(p) != list(range(n)):
        raise InputError(f"image list {p!r} is not a bijection on 0..{n - 1}")
    return p


def pmul(p: Perm, q: Perm) -> Perm:
    """Product: apply p, then q."""
    return tuple(q[i] for i in p)


def pinv(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    n = 1
    for c in cycle_lengths(p):
        n = n * c // gcd(n, c)
    return n


def cycle_lengths(p: Perm) -> list[int]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return out


def format_cycles(p: Perm) -> str:
    """Disjoint-cycle string, e.g. ``(0 1 2)(3 4)``; identity is ``()``."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse a product of disjoint (or not) cycles on 0-based points."""
    s = text.strip()
    if not s:
        raise InputError("empty permutation string")
    if _CYCLE_RE.sub("", s).strip():
        raise InputError(f"could not parse permutation {text!r}")
    p = list(identity(degree))
    for body in _CYCLE_RE.findall(s):
        pts = [tok for tok in re.split(r"[,\s]+", body.strip()) if tok]
        try:
            cyc = [int(tok) for tok in pts]
        except ValueError:
            raise InputError(f"bad point in cycle {body!r}") from None
        if not cyc:
            continue
        if len(set(cyc)) != len(cyc):
            raise InputError(f"repeated point in cycle {body!r}")
        for pt in cyc:
            if not 0 <= pt < degree:
                raise InputError(f"point {pt} out of range for degree {degree}")
        step = list(identity(degree))
        for a, b in zip(cyc, cyc[1:]):
            step[a] = b
        step[cyc[-1]] = cyc[0]
        p = [step[i] for i in p]
    return tuple(p)


def parse_perm_list(text: str, degree: int) -> list[Perm]:
    """Parse a list of permutations separated by ';' or ','  between cycles."""
    out = []
    for chunk in _split_perm_list(text):
        out.append(parse_cycles(chunk, degree))
    return out


def _split_perm_list(text: str) -> Iterable[str]:
    # Split on separators that are outside parentheses.
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch in ",;" and depth == 0:
            if "".join(cur).strip():
                yield "".join(cur)
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    if "".join(cur).strip():
        yield "".join(cur)
