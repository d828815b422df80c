"""Nothing is materialised that no report needs.

With ``Group.elements`` refused, the tuple products ``pmul``/``pinv``
refused everywhere but in Schreier-Sims, and json's pure-Python encoder
refused, every command still runs on one corpus group per prime, and so
does an ``--ambient`` job, each exiting as it does with the guards off.
"""

import json
import sys

import pytest

from pblocks import groups, perms
from pblocks.cli import COMMANDS, run

SCHREIER_SIMS = {"_orbit_transversal", "_sift", "_build_chain"}


def _only_in_schreier_sims(fn):
    def guarded(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller not in SCHREIER_SIMS:
            raise AssertionError(f"{fn.__name__} called from {caller}")
        return fn(*args)
    return guarded


def _refused(*args):
    raise AssertionError("Group.elements() called")


def _pure_python_json(*args, **kwargs):
    raise AssertionError("a report reached json's pure-Python encoder")


@pytest.fixture
def guarded(monkeypatch):
    products = {attr: _only_in_schreier_sims(getattr(perms, attr)) for attr in ("pmul", "pinv")}
    for name, module in list(sys.modules.items()):
        if name == "pblocks" or name.startswith("pblocks."):
            for attr, fn in products.items():
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fn)
    monkeypatch.setattr(groups.Group, "elements", _refused)
    monkeypatch.setattr(json.encoder, "_make_iterencode", _pure_python_json)


@pytest.mark.parametrize("name, p", [("S4", 2), ("A5", 3), ("F20", 5), ("F21", 7)])
@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_on_element_indices(guarded, capsys, command, name, p):
    argv = [command]
    if command != "repair-demo":
        argv += ["--lib", name]
    if command not in ("table", "repair-demo"):
        argv += ["--prime", str(p)]
    if command in ("verify-am", "pi-pairing"):
        argv.append("--all-blocks")
    assert run(argv) == 0
    assert capsys.readouterr().out


def test_ambient_runs_on_element_indices(guarded, capsys, tmp_path):
    s5 = tmp_path / "s5.grp"
    s5.write_text("degree: 5\ngenerators: (0 1); (0 1 2 3 4)\n")
    for p in ("2", "3", "5"):
        assert run(["verify-ctc", "--lib", "A5", "--prime", p, "--max-defect",
                    "--ambient", str(s5)]) == 0
        assert "ambient_orbit_sizes" in capsys.readouterr().out


def test_guards_catch_tuple_paths(guarded):
    G = groups.Group(3, [(1, 2, 0)])
    with pytest.raises(AssertionError):
        G.elements()
    with pytest.raises(AssertionError):
        perms.pmul(G.generators[0], G.generators[0])
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
