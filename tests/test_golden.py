"""Every sample, heap index, codeword, sweep-CSV byte and codec bit string
matches the fixture.

The fixture is written by ``tests/make_golden.py``; a change that alters any
output on purpose (a declared format change) regenerates it and says why.
"""

import json

from make_golden import FIXTURE, build


def test_outputs_match_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    got = build()
    assert got.keys() == want.keys()
    for section in ("batch_sha256", "bound_masses_sha256", "sweep_csv", "codecs"):
        assert got[section] == want[section], section
    assert got["codes"].keys() == want["codes"].keys()
    for key, code in want["codes"].items():
        assert got["codes"][key] == code, key
