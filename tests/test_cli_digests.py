"""Byte-identity gate: CLI output digests against the committed fixture."""

import json

from cli_digests import FIXTURE, capture


def test_cli_output_matches_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = capture()
    assert actual.keys() == expected.keys()
    changed = sorted(job for job in expected if actual[job] != expected[job])
    assert not changed, f"{len(changed)} jobs changed output, first: {changed[:5]}"
