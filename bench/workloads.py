"""Workload definitions, the benchmark's own group catalogue, and seeded inputs.

The catalogue below builds generators without importing pblocks, so the
inputs of a seeded run come from the benchmark alone.  Group orders and
class numbers are written by hand from standard facts (partition numbers
for S_n, the dihedral class-number formula, known values for the small
exceptional groups) and combined by the product rule; they are a check on
the program that does not go through the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# name -> (order, number of conjugacy classes)
KNOWN_ATOMS = {
    "C1": (1, 1), "C2": (2, 2), "C3": (3, 3), "C4": (4, 4), "C5": (5, 5),
    "C6": (6, 6), "C8": (8, 8), "C9": (9, 9), "C10": (10, 10), "C12": (12, 12),
    # D_n has (n + 3) / 2 classes for odd n and n / 2 + 3 for even n.
    "D4": (8, 5), "D5": (10, 4), "D6": (12, 6), "D7": (14, 5), "D8": (16, 7),
    "D10": (20, 8),
    # S_n has p(n) classes: p(3..7) = 3, 5, 7, 11, 15.
    "S3": (6, 3), "S4": (24, 5), "S5": (120, 7), "S6": (720, 11),
    "S7": (5040, 15),
    "A4": (12, 4), "A5": (60, 5),
    "Q8": (8, 5), "SL23": (24, 7), "F20": (20, 5), "F21": (21, 5),
    "DIC3": (12, 6),
}


def atoms(name: str) -> list[str]:
    return [part.upper() for part in name.split("x")]


def known_order_and_classes(name: str) -> tuple[int, int]:
    """|G| and r for an x-product of catalogue atoms, by the product rule."""
    order, classes = 1, 1
    for atom in atoms(name):
        o, r = KNOWN_ATOMS[atom]
        order *= o
        classes *= r
    return order, classes


def prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _cycle(n: int) -> tuple:
    return tuple(range(1, n)) + (0,)


def _atom_generators(atom: str) -> tuple[int, list[tuple]]:
    """(degree, generators) of one catalogue atom, as image tuples."""
    kind, digits = atom[0], atom[1:]
    if atom == "Q8":  # regular action on 1, -1, i, -i, j, -j, k, -k
        return 8, [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]
    if atom == "SL23":  # on the nonzero vectors of F_3^2
        vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

        def act(m):
            (a, b), (c, d) = m
            return tuple(vecs.index(((a * x + b * y) % 3, (c * x + d * y) % 3))
                         for x, y in vecs)

        return 8, [act(((0, 2), (1, 0))), act(((1, 1), (0, 1)))]
    if atom == "F20":  # x -> x + 1 and x -> 2x on F_5
        return 5, [_cycle(5), tuple(2 * i % 5 for i in range(5))]
    if atom == "F21":  # x -> x + 1 and x -> 2x on F_7
        return 7, [_cycle(7), tuple(2 * i % 7 for i in range(7))]
    if atom == "DIC3":  # C3 : C4, the C4 generator inverting C3
        return 7, [(1, 2, 0, 3, 4, 5, 6), (0, 2, 1, 4, 5, 6, 3)]
    n = int(digits)
    if kind == "C":
        return n, ([_cycle(n)] if n > 1 else [])
    if kind == "D":
        return n, [_cycle(n), tuple((n - i) % n for i in range(n))]
    if kind == "S":
        return n, [(1, 0) + tuple(range(2, n)), _cycle(n)]
    if kind == "A":  # the 3-cycles (0 1 i) generate A_n
        gens = []
        for i in range(2, n):
            g = list(range(n))
            g[0], g[1], g[i] = 1, i, 0
            gens.append(tuple(g))
        return n, gens
    raise KeyError(atom)


def group_generators(name: str) -> tuple[int, list[tuple]]:
    """Direct product of the atoms of ``name`` on disjoint points."""
    degree, gens = 0, []
    parts = [_atom_generators(a) for a in atoms(name)]
    total = sum(d for d, _ in parts)
    for d, part_gens in parts:
        for g in part_gens:
            gens.append(tuple(range(degree)) + tuple(x + degree for x in g)
                        + tuple(range(degree + d, total)))
        degree += d
    return total, gens


def _cycles_text(g: tuple) -> str:
    seen, cycles = set(), []
    for start in range(len(g)):
        if start in seen or g[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x))
            x = g[x]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles) or "()"


def relabelled_group_file(name: str, seed: int) -> str:
    """Group-definition text with points relabelled by a seeded permutation."""
    degree, gens = group_generators(name)
    sigma = list(range(degree))
    random.Random(f"{seed}:{name}").shuffle(sigma)
    relabelled = []
    for g in gens:
        h = [0] * degree
        for i in range(degree):
            h[sigma[i]] = sigma[g[i]]
        relabelled.append(tuple(h))
    return (f"# {name}, points relabelled with seed {seed}\n"
            f"degree: {degree}\n"
            "generators: " + "; ".join(_cycles_text(g) for g in relabelled) + "\n")


@dataclass(frozen=True)
class Job:
    command: str
    group: str | None
    args: tuple = ()
    expect_exit: int = 0  # checked when the reference is captured

    @property
    def label(self) -> str:
        return " ".join([self.command] + ([self.group] if self.group else [])
                        + list(self.args))

    def argv(self, seed: int, group_dir: Path | None) -> list[str]:
        if self.command == "repair-demo":
            return ["repair-demo", "--seed", str(seed)] + list(self.args)
        if seed == 0:
            source = ["--lib", self.group]
        else:
            source = ["--group", str(group_dir / f"{self.group}.grp")]
        return [self.command] + source + list(self.args)


CORPUS = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C8", "C9", "C10", "C12",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3",
    "D4", "D5", "D6", "D7", "D8", "D10",
    "S3", "S4", "S5", "A4", "A5",
    "Q8", "SL23", "F20", "F21", "Dic3",
    "C2xA4", "C3xS3", "C2xD4", "C2xQ8",
]

PRIME_COMMANDS = ("blocks", "chains", "verify-ctc", "verify-am",
                  "verify-abelian-defect", "verify-blockfree", "defect-scan",
                  "pi-pairing")


def _corpus_jobs() -> list[Job]:
    jobs = []
    for name in CORPUS:
        jobs.append(Job("table", name))
        for p in prime_divisors(known_order_and_classes(name)[0]):
            jobs.extend(Job(c, name, ("--prime", str(p))) for c in PRIME_COMMANDS)
    jobs.append(Job("repair-demo", None))
    # Ceilings and bad input must fail fast with exit 2.
    jobs.append(Job("table", "S7", (), expect_exit=2))
    jobs.append(Job("blocks", "S4", ("--prime", "4"), expect_exit=2))
    return jobs


BIG = ("--max-order", "6000")

WORKLOADS: dict[str, list[Job]] = {
    "chains-full": [
        Job("verify-blockfree", "S4xC2xC2", ("--prime", "2")),
        Job("verify-blockfree", "D4xC2xC2", ("--prime", "2")),
        Job("verify-ctc", "S7", ("--prime", "2") + BIG),
        Job("chains", "S6", ("--prime", "2", "--start", "trivial")),
    ],
    "chains-count": [
        Job("defect-scan", name, ("--prime", str(p)))
        for name, p in (("C4xC2xC2xC2", 2), ("C2xC2xC2xC2xC5", 2),
                        ("C4xC4xC2", 2), ("C2xC2xC2xC2xC3", 2),
                        ("C3xC3xC3xC2", 3))
    ],
    "tables-blocks": [
        Job("table", "F21xS5"),
        Job("verify-am", "F21xS5", ("--prime", "7", "--all-blocks")),
        Job("table", "S4xS4xC3"),
        Job("verify-am", "S4xS4xC3", ("--prime", "3", "--all-blocks")),
        Job("blocks", "A5xS4xC2", ("--prime", "5") + BIG),
        Job("verify-am", "A5xS4xC2", ("--prime", "3", "--all-blocks") + BIG),
        Job("table", "S5xS4"),
        Job("blocks", "S5xS4", ("--prime", "2")),
        Job("verify-am", "S5xS4", ("--prime", "5", "--all-blocks")),
        Job("table", "A5xA5"),
        Job("verify-am", "A5xA5", ("--prime", "2", "--all-blocks")),
        Job("blocks", "S7", ("--prime", "5") + BIG),
        Job("verify-am", "S7", ("--prime", "7", "--all-blocks") + BIG),
    ],
    "corpus-small": _corpus_jobs(),
}


def write_group_files(workload: str, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in {j.group for j in WORKLOADS[workload] if j.group}:
        (directory / f"{name}.grp").write_text(
            relabelled_group_file(name, seed), encoding="utf-8")
