"""The demos print what they printed when their fixtures were captured.

Each script in ``demos/`` runs in a fresh interpreter on this checkout's
``src``, and its stdout is compared with ``tests/fixtures/demos/<name>.txt``.
Recapture a fixture only for an intended and explained change of output::

    PYTHONPATH=src python demos/<name>.py > tests/fixtures/demos/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_fixture():
    fixtures = sorted((ROOT / "tests" / "fixtures" / "demos").glob("*.txt"))
    assert [f.stem for f in fixtures] == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_fixture(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    expected = (ROOT / "tests" / "fixtures" / "demos" / f"{demo.stem}.txt").read_text()
    assert out.stdout == expected
