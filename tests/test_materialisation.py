"""Nothing is materialised that no report needs.

With ``Group.elements`` refused and json's pure-Python encoder refused,
every command still runs on one corpus group per prime, and so does an
``--ambient`` job, each exiting as it does with the guards off.  No tuple
product can run: ``perms`` holds none, and the tuple ``pmul``/``pinv`` are
test oracles.
"""

import json

import pytest

from pblocks import groups, perms
from pblocks.cli import COMMANDS, run


def _refused(*args):
    raise AssertionError("Group.elements() called")


def _pure_python_json(*args, **kwargs):
    raise AssertionError("a report reached json's pure-Python encoder")


@pytest.fixture
def guarded(monkeypatch):
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
    assert not hasattr(perms, "pmul") and not hasattr(perms, "pinv")
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
