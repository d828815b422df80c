"""Command line front end.

Exit codes: 0 = every check passed or was not applicable, 1 = at least one
check failed, 2 = input or resource problem, 3 = internal error (a bug).
"""

from __future__ import annotations

import argparse
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

COMMANDS = (
    "table",
    "blocks",
    "chains",
    "verify-ctc",
    "verify-am",
    "verify-abelian-defect",
    "verify-blockfree",
    "defect-scan",
    "pi-pairing",
    "repair-demo",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblocks",
        description="Exact block-theory and p-chain counting checks for "
        "small permutation groups.",
    )
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--group", metavar="FILE", help="group-definition file")
    src.add_argument("--lib", metavar="NAME",
                     help="built-in group, e.g. A5, S4, C2xA4")
    parser.add_argument("--prime", type=int, metavar="P")
    parser.add_argument("--ambient", metavar="FILE",
                        help="normalising overgroup (same degree) for the equivariance "
                             "check of verify-ctc in strict or permissive mode")
    blk = parser.add_mutually_exclusive_group()
    blk.add_argument("--block", type=int, metavar="I",
                     help="block index (canonical order, principal = 0)")
    blk.add_argument("--all-blocks", action="store_true")
    parser.add_argument("--start", metavar="Z-SPEC", default="op",
                        help="chain start: 'op' (O_p(G)), 'trivial', or "
                             "generators in cycle notation")
    dfc = parser.add_mutually_exclusive_group()
    dfc.add_argument("--defect", type=int, metavar="D")
    dfc.add_argument("--max-defect", action="store_true")
    parser.add_argument("--mode", choices=("strict", "permissive", "blockfree"),
                        default="strict")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--max-order", type=int, default=None, metavar="N")
    parser.add_argument("--seed", type=int, default=0,
                        help="randomized demo seed (repair-demo)")
    parser.add_argument("--trials", type=int, default=100,
                        help="trial count (repair-demo)")
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
    _refuse_unused_ambient(args)
    return A


def _refuse_unused_ambient(args) -> None:
    """Only verify-ctc in strict or permissive mode uses --ambient; every
    other command refuses it rather than dropping it."""
    if args.command == "verify-ctc" and args.mode != "blockfree":
        return
    command = args.command + (" --mode blockfree" if args.command == "verify-ctc" else "")
    raise InputError(f"--ambient is not used by {command}; only verify-ctc in "
                     "strict or permissive mode uses it")


def _need_prime(args) -> int:
    if args.prime is None:
        raise InputError("this command needs --prime P")
    _check_prime(args.prime)
    return args.prime


def _start_handle(args, G: Group, p: int, blockfree: bool = False):
    """The chain start; block-free checks read the default 'op' as trivial."""
    spec = args.start.strip().lower()
    if spec == "trivial" or (blockfree and spec == "op"):
        return G.trivial_subgroup()
    if spec == "op":
        return G.p_core(p)
    gens = parse_perm_list(args.start, G.degree)
    return G.handle(generators=gens)


def _selected_blocks(args, table, p):
    blocks = p_blocks(table, p)
    if args.block is not None:
        if not 0 <= args.block < len(blocks):
            raise InputError(f"block index {args.block} out of range")
        return [blocks[args.block]]
    return list(blocks)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    limits = _limits(args)
    command = args.command

    if command == "repair-demo":
        if args.ambient:
            _refuse_unused_ambient(args)
        return _repair_demo(args), 0

    G = _load_group(args, limits)
    A = _load_ambient(args, G, limits)
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
    max_defect = command == "verify-ctc" and args.mode != "blockfree" and (
        args.max_defect or args.defect is None)
    if max_defect and args.start.strip().lower() != "op":
        raise InputError("--start is not used by verify-ctc at maximal defect, which "
                         "starts at O_p(G); only --defect D or --mode blockfree uses it")
    if max_defect and args.mode == "permissive":
        raise InputError("--mode permissive is not used by verify-ctc at maximal defect, which "
                         "picks strict or permissive per block; only --defect D uses it")
    if command == "chains" and args.all_blocks:
        raise InputError("--all-blocks is not used by chains, which reports one block: "
                         "--block I, or the principal block with --defect D alone")
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
        if args.mode == "blockfree":
            reports.append(verify_blockfree(G, p, _start_handle(args, G, p, blockfree=True)))
        elif max_defect:
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
        U = _start_handle(args, G, p, blockfree=True)
        reports.append(verify_blockfree(G, p, U))
    elif command == "defect-scan":
        U = _start_handle(args, G, p, blockfree=True)
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
    rng = random.Random(args.seed)
    trials = max(1, args.trials)
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
