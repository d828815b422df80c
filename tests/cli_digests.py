"""The CLI jobs of the byte-identity gate and the digests of their output.

Each job runs through :func:`pblocks.cli.run` in process; its record is the
exit code and the sha256 of its stdout.  The jobs cover ``chains``,
``verify-ctc``, ``verify-blockfree``, ``defect-scan``, ``pi-pairing`` and
``verify-abelian-defect`` at every prime dividing the order of each
acceptance-corpus group with the default start, plus ``chains --start
trivial`` and ``chains --block 0``.

``tests/test_cli_digests.py`` compares a fresh run with the committed
fixture.  Recapture the fixture only for an intended and explained change
of output::

    PYTHONPATH=src python tests/cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from sympy import primefactors

from pblocks.cli import run
from pblocks.library import acceptance_corpus, library_group

FIXTURE = Path(__file__).parent / "fixtures" / "cli_digests.json"

COMMANDS = ("chains", "verify-ctc", "verify-blockfree", "defect-scan", "pi-pairing",
            "verify-abelian-defect")


def jobs() -> list[list[str]]:
    out = []
    for name in acceptance_corpus():
        for p in primefactors(library_group(name).order):
            base = ["--lib", name, "--prime", str(p)]
            out.extend([command] + base for command in COMMANDS)
            out.append(["chains"] + base + ["--start", "trivial"])
            out.append(["chains"] + base + ["--block", "0"])
    return out


def digest(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}


def capture() -> dict:
    return {" ".join(argv): digest(argv) for argv in jobs()}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
