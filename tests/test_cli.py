"""CLI surface: commands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pblocks import chartable, groups
from pblocks.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_table_command(capsys):
    code, out = capture(capsys, ["table", "--lib", "S3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["degrees"] == [1, 1, 2]
    assert doc["result"]["lift"]["prime"] == 7


def test_blocks_command(capsys):
    code, out = capture(capsys, ["blocks", "--lib", "C2", "--prime", "2"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["blocks"]) == 1
    assert doc["result"]["blocks"][0]["defect"] == 1


def test_verify_ctc_a5(capsys):
    code, out = capture(
        capsys,
        ["verify-ctc", "--lib", "A5", "--prime", "2", "--max-defect"],
    )
    assert code == 0
    doc = json.loads(out)
    verdicts = [r["verdict"] for r in doc["results"]]
    assert "pass" in verdicts and "fail" not in verdicts
    counted = [r for r in doc["results"] if r["verdict"] == "pass"]
    assert counted[0]["left_count"] == counted[0]["right_count"] == 8


def test_verify_am_s4_p3(capsys):
    code, out = capture(
        capsys, ["verify-am", "--lib", "S4", "--prime", "3", "--all-blocks"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_chains_text(capsys):
    code, out = capture(
        capsys,
        ["chains", "--lib", "A5", "--prime", "2", "--block", "0",
         "--start", "trivial", "--format", "text"],
    )
    assert code == 0
    assert "chain [1, 2, 4] sign +" in out
    assert "pair counts" in out


def test_defect_scan_and_pairing(capsys):
    code, out = capture(capsys, ["defect-scan", "--lib", "A5", "--prime", "2"])
    assert code == 0
    code, out = capture(
        capsys, ["pi-pairing", "--lib", "A5", "--prime", "2", "--block", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["verdict"] == "pass"


def test_repair_demo(capsys):
    code, out = capture(capsys, ["repair-demo", "--trials", "25", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["sample_trace"]


def test_group_file_and_ambient(tmp_path, capsys):
    a4 = tmp_path / "a4.grp"
    a4.write_text("degree: 4\ngenerators: (0 1 2); (1 2 3)\n")
    s4 = tmp_path / "s4.grp"
    s4.write_text("degree: 4\ngenerators: (0 1); (0 1 2 3)\n")
    code, out = capture(
        capsys,
        ["verify-ctc", "--group", str(a4), "--prime", "3", "--block", "0",
         "--defect", "1", "--ambient", str(s4)],
    )
    assert code == 0
    doc = json.loads(out)
    rep = doc["results"][0]
    assert rep["verdict"] == "pass"
    assert rep["witness"]["ambient_orbit_sizes"]["plus"] == [1, 2]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    assert run(["blocks", "--lib", "NOSUCH", "--prime", "2"]) == 2
    assert run(["blocks", "--lib", "C2"]) == 2  # missing prime
    assert run(["blocks", "--lib", "C2", "--prime", "4"]) == 2  # not prime
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 3\ngenerators: (0 7)\n")
    assert run(["table", "--group", str(bad)]) == 2
    assert run(["table", "--lib", "S5", "--max-order", "50"]) == 2
    capsys.readouterr()


def test_order_ceiling_names_ceiling_value_and_flag(capsys, monkeypatch):
    assert run(["table", "--lib", "S5", "--max-order", "50"]) == 2
    assert capsys.readouterr().err == \
        "error: group order 120 exceeds the ceiling max_order = 50 (--max-order)\n"
    assert run(["table", "--lib", "S7"]) == 2
    assert capsys.readouterr().err == \
        "error: group order 5040 exceeds the ceiling max_order = 5000 (--max-order)\n"
    # the ceiling reads the order off the stabilizer chain: no element row of
    # S10's 3,628,800 is made
    monkeypatch.setattr(groups, "_ElementArray", lambda rows: pytest.fail("element rows made"))
    s10 = Path(__file__).parent / "fixtures" / "groups" / "S10.txt"
    assert run(["table", "--group", str(s10)]) == 2
    assert capsys.readouterr().err == \
        "error: group order 3628800 exceeds the ceiling max_order = 5000 (--max-order)\n"


@pytest.mark.parametrize("flag", ["--group", "--ambient"])
def test_unreadable_group_file_exits_2(tmp_path, capsys, flag):
    s4 = tmp_path / "s4.grp"
    s4.write_text("degree: 4\ngenerators: (0 1); (0 1 2 3)\n")
    latin1 = tmp_path / "latin1.grp"
    latin1.write_bytes("# caf\xe9\ndegree: 4\ngenerators: (0 1)\n".encode("latin-1"))
    cases = [
        (tmp_path / "missing.grp", "cannot read group file {}: No such file or directory"),
        (tmp_path, "cannot read group file {}: Is a directory"),
        (latin1, "group file {} is not UTF-8 text"),
    ]
    for path, message in cases:
        source = ["--group", str(path)] if flag == "--group" else \
            ["--group", str(s4), "--ambient", str(path)]
        assert run(["verify-ctc", *source, "--prime", "2"]) == 2
        assert capsys.readouterr().err == "error: " + message.format(path) + "\n"


@pytest.mark.parametrize("command", [
    ["table"], ["blocks"], ["chains"], ["verify-am"], ["verify-abelian-defect"],
    ["verify-blockfree"], ["defect-scan"], ["pi-pairing"], ["repair-demo"],
    ["verify-ctc", "--mode", "blockfree"],
])
def test_unused_ambient_exits_2_before_any_table(tmp_path, capsys, monkeypatch, command):
    a4 = tmp_path / "a4.grp"
    a4.write_text("degree: 4\ngenerators: (0 1 2); (1 2 3)\n")
    s4 = tmp_path / "s4.grp"
    s4.write_text("degree: 4\ngenerators: (0 1); (0 1 2 3)\n")
    monkeypatch.setattr(chartable, "_dixon_table", lambda G: pytest.fail("table built"))
    source = [] if command[0] == "repair-demo" else ["--group", str(a4)]
    prime = [] if command[0] in ("table", "repair-demo") else ["--prime", "3"]
    assert run([*command, *source, *prime, "--ambient", str(s4)]) == 2
    err = capsys.readouterr().err
    if command[0] == "verify-ctc":  # verify-ctc takes --ambient, but has no blockfree mode
        assert err.splitlines()[-1].startswith(
            "pblocks verify-ctc: error: argument --mode: invalid choice: 'blockfree'")
    else:
        assert err == f"error: {command[0]} does not take --ambient {s4}\n"


def test_bad_ambient_fails_before_any_table(tmp_path, capsys, monkeypatch):
    a4 = tmp_path / "a4.grp"
    a4.write_text("degree: 4\ngenerators: (0 1 2); (1 2 3)\n")
    s3 = tmp_path / "s3.grp"
    s3.write_text("degree: 3\ngenerators: (0 1); (0 1 2)\n")
    monkeypatch.setattr(chartable, "_dixon_table", lambda G: pytest.fail("table built"))
    assert run(["verify-ctc", "--group", str(a4), "--prime", "3",
                "--ambient", str(s3)]) == 2
    assert capsys.readouterr().err == "error: ambient group must act on the same points\n"


def test_ambient_moving_the_start_exits_2(tmp_path, capsys):
    # swapping the factors of S3 x S3 moves the start C3 x 1 to 1 x C3
    s3s3 = tmp_path / "s3s3.grp"
    s3s3.write_text("degree: 6\ngenerators: (0 1 2); (0 1); (3 4 5); (3 4)\n")
    wreath = tmp_path / "wreath.grp"
    wreath.write_text("degree: 6\ngenerators: (0 1 2); (0 1); (0 3)(1 4)(2 5)\n")
    argv = ["verify-ctc", "--group", str(s3s3), "--prime", "3", "--mode", "permissive",
            "--block", "0", "--defect", "2", "--ambient", str(wreath)]
    assert run(argv + ["--start", "(0 1 2)"]) == 2
    assert capsys.readouterr().err == \
        "error: the ambient block stabilizer must normalise the chain start\n"
    assert run(argv + ["--start", "(0 1 2); (3 4 5)"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_ceiling_below_one_exits_2(capsys, value):
    from pblocks.config import Limits
    from pblocks.errors import InputError

    assert run(["table", "--lib", "S4", "--max-order", value]) == 2
    assert capsys.readouterr().err == f"error: ceiling max_order must be at least 1, got {value}\n"
    with pytest.raises(InputError, match="ceiling max_chain_orbits must be at least 1, got 0"):
        Limits(max_chain_orbits=0)


@pytest.mark.parametrize("mode", ["strict", "permissive"])
def test_negative_defect_exits_2(capsys, mode):
    argv = ["verify-ctc", "--lib", "S4", "--prime", "2", "--block", "0",
            "--defect", "-1", "--mode", mode]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: defect must be non-negative\n"


def test_byte_identical_reruns(capsys):
    argv = ["verify-ctc", "--lib", "A5", "--prime", "2", "--block", "0",
            "--defect", "2"]
    _, first = capture(capsys, argv)
    _, second = capture(capsys, argv)
    assert first == second
    argv2 = ["blocks", "--lib", "SL23", "--prime", "2"]
    _, b1 = capture(capsys, argv2)
    _, b2 = capture(capsys, argv2)
    assert b1 == b2


def test_canonical_metadata_embedded(capsys):
    _, out = capture(capsys, ["blocks", "--lib", "A5", "--prime", "2"])
    doc = json.loads(out)
    env = doc["environment"]
    assert env["table_lift"]["prime"] == 31
    assert env["reduction_field"]["p"] == 2
    assert "modulus" in env["reduction_field"]


def test_blockfree_mode_flag(capsys):
    # the block-free check is verify-blockfree, not a mode of verify-ctc
    assert run(["verify-ctc", "--lib", "S3", "--prime", "3", "--mode", "blockfree"]) == 2
    assert "invalid choice: 'blockfree'" in capsys.readouterr().err
    code, out = capture(capsys, ["verify-blockfree", "--lib", "S3", "--prime", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["check"] == "blockfree-count"
    assert doc["results"][0]["verdict"] == "pass"


def test_exit_code_1_on_failed_check(capsys, monkeypatch):
    from pblocks import cli
    from pblocks.conjectures import CheckReport

    def fake(G, p, U=None):
        return CheckReport("blockfree-count", {}, 1, 2, "fail")

    monkeypatch.setattr(cli, "verify_blockfree", fake)
    code, _ = capture(capsys, ["verify-blockfree", "--lib", "C2", "--prime", "2"])
    assert code == 1


def test_exit_code_3_on_internal_error(capsys, monkeypatch):
    from pblocks import cli
    from pblocks.errors import InternalError

    def broken(G, p, U=None):
        raise InternalError("consistency check failed")

    monkeypatch.setattr(cli, "verify_blockfree", broken)
    assert run(["verify-blockfree", "--lib", "C2", "--prime", "2"]) == 3
    assert "internal error: consistency check failed" in capsys.readouterr().err


@pytest.mark.parametrize("name,message", [
    # S4 at p = 2: a Sylow subgroup has 10 subgroups, in 7 classes of S4
    ("S4", "p-subgroup class count reached 2, above the ceiling "
           "max_p_subgroup_classes = 1"),
    # C2^4 has 1 + 15 + 35 + 15 + 1 subgroups
    ("C2xC2xC2xC2", "p-subgroup count reached 65, above the ceiling "
                    "64 * max_p_subgroup_classes = 64"),
    # C2^7 has 127 subgroups of order 2, so the first batch passes the ceiling
    ("C2xC2xC2xC2xC2xC2xC2", "p-subgroup count reached 65, above the ceiling "
                             "64 * max_p_subgroup_classes = 64"),
])
def test_p_subgroup_ceilings_exit_2(capsys, monkeypatch, name, message):
    from pblocks import cli
    from pblocks.config import Limits
    from pblocks.errors import ResourceError
    from pblocks.library import library_group

    G = library_group(name, limits=Limits(max_p_subgroup_classes=1))
    with pytest.raises(ResourceError) as info:
        G.p_subgroup_classes(2)
    assert str(info.value) == message
    monkeypatch.setattr(cli, "_limits", lambda args: Limits(max_p_subgroup_classes=1))
    assert run(["chains", "--lib", name, "--prime", "2", "--start", "trivial"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify-am", "--lib", "S5xS4", "--prime", "5", "--all-blocks"],
    ["defect-scan", "--lib", "C2xC2xC2xC2xC3", "--prime", "2"],
])
def test_each_element_set_is_tabled_once(monkeypatch, capsys, argv):
    # G is also a chain stabiliser, N_G(1) and a centraliser in these jobs
    tabled = []
    build = chartable._dixon_table

    def counting(G):
        tabled.append(frozenset(G.elements()))
        return build(G)

    monkeypatch.setattr(chartable, "_dixon_table", counting)
    assert run(argv) == 0
    capsys.readouterr()
    assert tabled and len(tabled) == len(set(tabled))


@pytest.mark.parametrize("argv,runs", [
    (["verify-am", "--lib", "S5xS4", "--prime", "5", "--all-blocks"], 1),
    (["pi-pairing", "--lib", "C2xD4", "--prime", "2", "--all-blocks"], 1),
    (["verify-ctc", "--lib", "S4", "--prime", "2", "--max-defect"], 1),
    (["verify-ctc", "--group", "a4.grp", "--prime", "2", "--ambient", "s4.grp"], 2),
])
def test_one_schreier_sims_run_per_input_group(tmp_path, monkeypatch, capsys, argv, runs):
    # library products, chain stabilisers, N_G(D) and centralisers are not
    # rebuilt: only the input groups (G, and A with --ambient) run Schreier-Sims
    files = {"a4.grp": "degree: 4\ngenerators: (0 1 2); (1 2 3)\n",
             "s4.grp": "degree: 4\ngenerators: (0 1); (0 1 2 3)\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    calls = []
    build = groups._build_chain

    def counting(gens):
        calls.append(gens.shape)
        return build(gens)

    monkeypatch.setattr(groups, "_build_chain", counting)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == runs


def results_by_block(capsys, argv):
    code, out = capture(capsys, argv)
    assert code == 0
    return [(r["inputs"]["block"], r["verdict"]) for r in json.loads(out)["results"]]


def test_max_defect_honours_the_block_selection(capsys):
    base = ["verify-ctc", "--lib", "S4", "--prime", "3"]
    every = results_by_block(capsys, base)
    assert [b for b, _ in every] == [0, 1, 2]
    assert results_by_block(capsys, base + ["--max-defect"]) == every
    assert results_by_block(capsys, base + ["--all-blocks"]) == every
    for i in range(3):
        assert results_by_block(capsys, base + ["--block", str(i)]) == [every[i]]
        assert results_by_block(capsys, base + ["--block", str(i), "--max-defect"]) \
            == [every[i]]
    assert run(base + ["--block", "3"]) == 2
    assert capsys.readouterr().err == "error: block index 3 out of range\n"


MAX_DEFECT_REFUSAL = (
    "error: verify-ctc takes --start and --mode only with --defect D: at maximal "
    "defect it starts at O_p(G) and picks the mode per block\n")


@pytest.mark.parametrize("start", ["trivial", "(0 1 2)"])
@pytest.mark.parametrize("defect", [[], ["--max-defect"]])
def test_max_defect_refuses_start_before_any_table(capsys, monkeypatch, start, defect):
    monkeypatch.setattr(chartable, "_dixon_table", lambda G: pytest.fail("table built"))
    assert run(["verify-ctc", "--lib", "S4", "--prime", "3", *defect, "--start", start]) == 2
    assert capsys.readouterr().err == MAX_DEFECT_REFUSAL


@pytest.mark.parametrize("command", ["verify-blockfree", "defect-scan"])
@pytest.mark.parametrize("start", [
    ["--prime", "5"],  # 5 does not divide |S3|: the trivial start is Sylow
    ["--prime", "3", "--start", "(0 1 2)"],
])
def test_blockfree_start_at_sylow_exits_2(capsys, command, start):
    assert run([command, "--lib", "S3", *start]) == 2
    assert capsys.readouterr().err == \
        "error: start term must be smaller than a Sylow p-subgroup\n"


@pytest.mark.parametrize("command", ["verify-blockfree", "defect-scan"])
def test_blockfree_start_op_is_the_p_core(capsys, command):
    argv = [command, "--lib", "S4", "--prime", "2"]
    outputs = {}
    for start in ([], ["--start", "trivial"], ["--start", "op"],
                  ["--start", "(0 1)(2 3); (0 2)(1 3)"]):  # O_2(S4)
        assert run(argv + start) == 0
        outputs[" ".join(start)] = capsys.readouterr().out
    assert outputs[""] == outputs["--start trivial"]
    assert outputs["--start op"] == outputs["--start (0 1)(2 3); (0 2)(1 3)"]
    assert outputs["--start op"] != outputs[""]
    assert run([command, "--help"]) == 0
    assert "(default trivial)" in capsys.readouterr().out


def test_blockfree_start_op_at_sylow_exits_2(capsys):
    # O_2(C4) = C4 is the Sylow 2-subgroup
    assert run(["defect-scan", "--lib", "C4", "--prime", "2", "--start", "op"]) == 2
    assert capsys.readouterr() == \
        ("", "error: start term must be smaller than a Sylow p-subgroup\n")


def test_prime_above_int64_guard_exits_2(capsys):
    # x^p on the element rows takes O(log p) gathers, so the run reaches the
    # guard instead of spending p - 1 gathers on the p-subgroup lattice
    assert run(["chains", "--lib", "S3", "--prime", "2305843009213693951"]) == 2
    assert "at or above the int64 bound" in capsys.readouterr().err


def test_prime_at_primality_bound_exits_2(capsys):
    assert run(["blocks", "--lib", "S3", "--prime", str(chartable._MR_BOUND)]) == 2
    assert capsys.readouterr().err == (
        f"error: primality of {chartable._MR_BOUND} is not decided at or above "
        f"the Miller-Rabin bound {chartable._MR_BOUND}\n")


def test_import_loads_no_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, pblocks.cli; print(sorted(m for m in sys.modules if m.startswith('sympy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("defect", [[], ["--max-defect"]])
def test_max_defect_refuses_permissive_before_any_table(capsys, monkeypatch, defect):
    # at maximal defect each block runs strict or permissive by itself, so a
    # requested permissive mode would be reported but not used
    monkeypatch.setattr(chartable, "_dixon_table", lambda G: pytest.fail("table built"))
    assert run(["verify-ctc", "--lib", "S4", "--prime", "2", *defect,
                "--mode", "permissive"]) == 2
    assert capsys.readouterr().err == MAX_DEFECT_REFUSAL


@pytest.mark.parametrize("defect", [[], ["--defect", "0"]])
def test_chains_refuses_all_blocks_before_any_table(capsys, monkeypatch, defect):
    # chains reports one block, so --all-blocks would be dropped
    monkeypatch.setattr(chartable, "_dixon_table", lambda G: pytest.fail("table built"))
    assert run(["chains", "--lib", "A5", "--prime", "2", "--all-blocks", *defect]) == 2
    assert capsys.readouterr().err == "error: chains does not take --all-blocks\n"


# Which command takes which option, written out here as a second source
# beside the parser in cli.py.
GROUP = ("--group", "--lib", "--max-order", "--format")
TAKES = {
    "table": GROUP,
    "blocks": GROUP + ("--prime",),
    "chains": GROUP + ("--prime", "--block", "--start", "--defect"),
    "verify-ctc": GROUP + ("--prime", "--block", "--all-blocks", "--start", "--defect",
                           "--max-defect", "--mode", "--ambient"),
    "verify-am": GROUP + ("--prime", "--block", "--all-blocks"),
    "pi-pairing": GROUP + ("--prime", "--block", "--all-blocks"),
    "verify-abelian-defect": GROUP + ("--prime",),
    "verify-blockfree": GROUP + ("--prime", "--start"),
    "defect-scan": GROUP + ("--prime", "--start"),
    "repair-demo": ("--format", "--seed", "--trials"),
}
OPTIONS = sorted(set().union(*TAKES.values()))


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("command", TAKES)
def test_option_matrix(tmp_path, capsys, monkeypatch, command, option):
    s3 = tmp_path / "s3.grp"
    s3.write_text("degree: 3\ngenerators: (0 1); (0 1 2)\n")
    values = {"--group": [str(s3)], "--lib": ["S3"], "--max-order": ["100"],
              "--format": ["text"], "--prime": ["2"], "--block": ["0"], "--all-blocks": [],
              "--start": ["op"], "--defect": ["1"], "--max-defect": [], "--mode": ["strict"],
              "--ambient": [str(s3)], "--seed": ["1"], "--trials": ["3"]}
    takes = TAKES[command]
    argv = [command]
    if "--lib" in takes and option not in ("--group", "--lib"):
        argv += ["--lib", "S3"]
    if "--prime" in takes and option != "--prime":
        argv += ["--prime", "2"]  # O_2(S3) = 1, so --start op is below a Sylow 2-subgroup
    argv += [option, *values[option]]
    if option in takes:
        assert run(argv) == 0
        capsys.readouterr()
        assert run([command, "--help"]) == 0
        assert option in capsys.readouterr().out
    else:
        monkeypatch.setattr(groups, "_build_chain", lambda *a: pytest.fail("group built"))
        assert run(argv) == 2
        assert capsys.readouterr() == \
            ("", f"error: {command} does not take {' '.join([option, *values[option]])}\n")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_repair_demo_refuses_trials_below_one(capsys, trials):
    assert run(["repair-demo", "--trials", trials]) == 2
    assert capsys.readouterr() == ("", f"error: --trials must be at least 1, got {trials}\n")


@pytest.mark.parametrize("start", [" ", ";"])
@pytest.mark.parametrize("command", [
    ["chains"], ["verify-ctc", "--defect", "2"], ["verify-blockfree"], ["defect-scan"],
])
def test_start_naming_no_permutation_exits_2(capsys, command, start):
    # 'trivial' asks for the trivial start; an empty generator list is a typo
    assert run([*command, "--lib", "S4", "--prime", "2", "--start", start]) == 2
    assert capsys.readouterr() == ("", f"error: --start {start!r} names no permutation; "
                                       "the trivial start is --start trivial\n")
