"""Every output byte of the runs in tests/golden.py, against its committed digest."""

import json

import golden


def test_outputs_match_the_committed_digests():
    stored = json.loads(golden.DIGESTS.read_text())
    changed = golden.differing(stored["digests"], golden.digests())
    assert not changed, (
        f"outputs differ from tests/golden/digests.json (recorded with {stored['versions']}, "
        f"running {golden.versions()}): {changed}"
    )
