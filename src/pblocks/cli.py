"""Command line front end.

Exit codes: 0 = every check passed or was not applicable, 1 = at least one
check failed, 2 = input or resource problem, 3 = internal error (a bug).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from .blocks import p_blocks
from .chains import pair_set
from .chartable import _check_prime, character_table
from .config import Limits
from .conjectures import (
    CheckReport,
    defect_support_scan,
    pi_pairing_check,
    repair_bijection,
    verify_abelian_defect,
    verify_am_count,
    verify_blockfree,
    verify_max_defect,
    verify_pair_count,
)
from .cyclotomic import _nu
from .errors import InputError, InternalError, ResourceError
from .groups import Group
from .library import library_group, parse_group_file
from .perms import parse_perm_list
from .reports import (
    SCHEMA_VERSION,
    block_document,
    canonical_json,
    chain_document,
    environment_document,
    group_document,
    table_document,
)

_OPTIONS = {
    "--group": dict(metavar="FILE", help="group-definition file"),
    "--lib": dict(metavar="NAME", help="built-in group, e.g. A5, S4, C2xA4"),
    "--max-order": dict(type=int, default=None, metavar="N"),
    "--prime": dict(type=int, metavar="P"),
    "--block": dict(type=int, metavar="I", help="block index (canonical order, principal = 0)"),
    "--all-blocks": dict(action="store_true"),
    "--start": dict(metavar="Z-SPEC", default="op",
                    help="chain start (default %(default)s): 'op' (O_p(G)), 'trivial', "
                         "or generators in cycle notation"),
    "--defect": dict(type=int, metavar="D"),
    "--max-defect": dict(action="store_true"),
    "--mode": dict(choices=("strict", "permissive"), default="strict"),
    "--ambient": dict(metavar="FILE",
                      help="normalising overgroup (same degree) for the equivariance check"),
    "--seed": dict(type=int, default=0, help="randomized demo seed"),
    "--trials": dict(type=int, default=100, help="trial count"),
    "--format": dict(choices=("json", "text"), default="json"),
}
_EXCLUSIVE = (("--group", "--lib"), ("--block", "--all-blocks"), ("--defect", "--max-defect"))
_GROUP = ("--group", "--lib", "--max-order")

# The options each command reads, besides --format; the parser refuses any other.
COMMANDS = {
    "table": _GROUP,
    "blocks": _GROUP + ("--prime",),
    "chains": _GROUP + ("--prime", "--block", "--start", "--defect"),
    "verify-ctc": _GROUP + ("--prime", "--block", "--all-blocks", "--start", "--defect",
                            "--max-defect", "--mode", "--ambient"),
    "verify-am": _GROUP + ("--prime", "--block", "--all-blocks"),
    "verify-abelian-defect": _GROUP + ("--prime",),
    "verify-blockfree": _GROUP + ("--prime", "--start"),
    "defect-scan": _GROUP + ("--prime", "--start"),
    "pi-pairing": _GROUP + ("--prime", "--block", "--all-blocks"),
    "repair-demo": ("--seed", "--trials"),
}
# The block-free checks start from the trivial subgroup unless told otherwise.
_TRIVIAL_START = ("verify-blockfree", "defect-scan")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, built on first use and kept: a build costs
    about thirty parses."""
    parser = argparse.ArgumentParser(
        prog="pblocks",
        description="Exact block-theory and p-chain counting checks for "
        "small permutation groups.",
    )
    parser.set_defaults(mode="strict")  # what check reports record without --mode
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMANDS.items():
        sub = subparsers.add_parser(command)
        exclusive = {pair: sub.add_mutually_exclusive_group()
                     for pair in _EXCLUSIVE if set(pair) <= set(options)}
        for option in options + ("--format",):
            home = next((g for pair, g in exclusive.items() if option in pair), sub)
            home.add_argument(option, **_OPTIONS[option])
        if command in _TRIVIAL_START:
            sub.set_defaults(start="trivial")
    return parser


def _limits(args) -> Limits:
    if args.max_order is None:
        return Limits()
    return Limits(max_order=args.max_order)


def _read_group_file(path: str, limits: Limits) -> Group:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read group file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"group file {path} is not UTF-8 text") from exc
    return parse_group_file(text, limits=limits)


def _load_group(args, limits: Limits) -> Group:
    if args.lib:
        return library_group(args.lib, limits=limits)
    if args.group:
        return _read_group_file(args.group, limits)
    raise InputError("need --group FILE or --lib NAME")


def _load_ambient(args, G: Group, limits: Limits) -> Group | None:
    """The --ambient group, read and checked before any table is built."""
    if not args.ambient:
        return None
    A = _read_group_file(args.ambient, limits)
    if A.degree != G.degree:
        raise InputError("ambient group must act on the same points")
    return A


def _need_prime(args) -> int:
    if args.prime is None:
        raise InputError("this command needs --prime P")
    _check_prime(args.prime)
    return args.prime


def _start_handle(args, G: Group, p: int):
    """The chain start that --start names."""
    spec = args.start.strip().lower()
    if spec == "trivial":
        return G.trivial_subgroup()
    if spec == "op":
        return G.p_core(p)
    gens = parse_perm_list(args.start, G.degree)
    if not gens:
        raise InputError(f"--start {args.start!r} names no permutation; "
                         "the trivial start is --start trivial")
    return G.handle(generators=gens)


def _selected_blocks(args, table, p):
    blocks = p_blocks(table, p)
    if args.block is not None:
        if not 0 <= args.block < len(blocks):
            raise InputError(f"block index {args.block} out of range")
        return [blocks[args.block]]
    return list(blocks)


def run(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
    except SystemExit as exc:  # --help, or a value argparse refuses
        return exc.code
    try:
        if extra:
            raise InputError(f"{args.command} does not take {' '.join(extra)}")
        bundle, exit_code = _execute(args)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(canonical_json(bundle))
    else:
        sys.stdout.write(_render_text(bundle))
    return exit_code


def _execute(args):
    command = args.command
    if command == "repair-demo":
        return _repair_demo(args), 0

    limits = _limits(args)
    G = _load_group(args, limits)
    A = _load_ambient(args, G, limits) if command == "verify-ctc" else None
    bundle = {
        "schema": SCHEMA_VERSION + "/report",
        "command": command,
        "group": group_document(G),
    }

    if command == "table":
        bundle["result"] = table_document(character_table(G))
        bundle["environment"] = environment_document(G, None)
        return bundle, 0

    p = _need_prime(args)
    if command == "verify-ctc" and args.defect is None and (
            args.start.strip().lower() != "op" or args.mode != "strict"):
        raise InputError("verify-ctc takes --start and --mode only with --defect D: at "
                         "maximal defect it starts at O_p(G) and picks the mode per block")
    bundle["p"] = p
    bundle["environment"] = environment_document(G, p)

    if command == "blocks":
        bundle["result"] = block_document(character_table(G), p)
        return bundle, 0

    if command == "chains":
        Z = _start_handle(args, G, p)
        if args.block is not None or args.defect is not None:
            blocks = _selected_blocks(args, character_table(G), p)
            d = args.defect if args.defect is not None else blocks[0].defect
            S = pair_set(G, blocks[0], Z, d)
        else:
            d = _nu(G.order, p)
            S = pair_set(G, "all", Z, d, p=p)
        bundle["result"] = chain_document(S)
        return bundle, 0

    reports: list[CheckReport] = []
    bundle["mode"] = args.mode
    table = character_table(G)

    if command == "verify-ctc":
        if args.defect is None:
            reports.extend(verify_max_defect(G, p, A=A, blocks=_selected_blocks(args, table, p)))
        else:
            Z = _start_handle(args, G, p)
            reports.extend(verify_pair_count(G, B, Z, args.defect, A=A, mode=args.mode)
                           for B in _selected_blocks(args, table, p))
    elif command == "verify-am":
        for B in _selected_blocks(args, table, p):
            reports.append(verify_am_count(G, B))
    elif command == "verify-abelian-defect":
        reports.extend(verify_abelian_defect(G, p))
    elif command == "verify-blockfree":
        U = _start_handle(args, G, p)
        reports.append(verify_blockfree(G, p, U))
    elif command == "defect-scan":
        U = _start_handle(args, G, p)
        reports.append(defect_support_scan(G, p, U))
    elif command == "pi-pairing":
        reports.extend(pi_pairing_check(G, B) for B in _selected_blocks(args, table, p))
    else:  # pragma: no cover
        raise InputError(f"unhandled command {command}")

    bundle["results"] = [r.to_dict() for r in reports]
    if any(r.failed for r in reports):
        return bundle, 1
    return bundle, 0


def _repair_demo(args) -> dict:
    """Randomized demonstration of the repair loop, with one traced sample."""
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    trials = args.trials
    traced = None
    for trial in range(trials):
        n = rng.randrange(2, 16)
        k = rng.randrange(1, n)
        xp = [f"a{i}" for i in range(n)]
        xm = [f"b{i}" for i in range(n)]
        c0 = set(rng.sample(xp, k))
        c1 = set(rng.sample(xm, k))
        perm = list(xm)
        rng.shuffle(perm)
        omega = dict(zip(xp, perm))
        rest_p = [x for x in xp if x not in c0]
        rest_m = [y for y in xm if y not in c1]
        rng.shuffle(rest_m)
        pi = dict(zip(rest_p, rest_m))
        result = repair_bijection(xp, c0, xm, c1, omega, pi)
        if traced is None and result.swap_log:
            traced = {
                "x_plus": xp,
                "c0": sorted(c0),
                "x_minus": xm,
                "c1": sorted(c1),
                "omega": {k2: omega[k2] for k2 in sorted(omega)},
                "repaired": {k2: result.mapping[k2] for k2 in sorted(result.mapping)},
                "swaps": [
                    {"start": e["start"], "end": e["end"],
                     "chase_length": len(e["chase"]) - 1}
                    for e in result.swap_log
                ],
            }
    return {
        "schema": SCHEMA_VERSION + "/repair-demo",
        "trials": trials,
        "seed": args.seed,
        "all_passed": True,
        "sample_trace": traced,
    }


def _render_text(bundle: dict) -> str:
    lines = [f"pblocks {bundle.get('command', 'repair-demo')}"]
    if "group" in bundle:
        g = bundle["group"]
        lines.append(f"group: degree {g['degree']}, order {g['order']}")
    if "p" in bundle:
        lines.append(f"prime: {bundle['p']}")
    if "results" in bundle:
        for r in bundle["results"]:
            counts = ""
            if r["left_count"] is not None:
                counts = f"  {r['left_count']} vs {r['right_count']}"
            lines.append(f"[{r['verdict']:>14}] {r['check']}{counts}")
            reason = r["witness"].get("reason")
            if reason:
                lines.append(f"                 ({reason})")
    elif "result" in bundle:
        doc = bundle["result"]
        if "degrees" in doc:
            lines.append(f"degrees: {doc['degrees']}")
        if "blocks" in doc:
            for b in doc["blocks"]:
                tag = " principal" if b["principal"] else ""
                lines.append(
                    f"block {b['index']}: degrees {b['degrees']}, "
                    f"defect {b['defect']}{tag}")
        if "orbits" in doc:
            for o in doc["orbits"]:
                lines.append(
                    f"chain {o['terms']} sign {o['sign']} "
                    f"stabilizer {o['stabilizer_order']}")
            if "pair_counts" in doc:
                lines.append(f"pair counts: {doc['pair_counts']}")
    elif "sample_trace" in bundle:
        lines.append(f"repair demo: {bundle['trials']} trials, all passed")
    return "\n".join(lines) + "\n"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
