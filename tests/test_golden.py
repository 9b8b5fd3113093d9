"""Every sample, heap index, codeword, sweep-CSV byte and codec bit string
matches the fixture.

The fixture is written by ``tests/make_golden.py``; a change that alters any
output on purpose (a declared format change) regenerates it and says why.
"""

import json

from make_golden import FIXTURE, build, differing_leaves


def test_outputs_match_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    assert differing_leaves(build(), want) == []
