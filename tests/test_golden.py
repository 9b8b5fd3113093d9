"""Every sample, heap index, codeword, sweep-CSV byte and codec bit string
matches the fixture.

The fixture is written by ``tests/make_golden.py``; a change that alters any
output on purpose (a declared format change) regenerates it and says why.
"""

import json

from make_golden import FIXTURE, build


def _differing_leaves(got, want, path=""):
    """The path of every leaf, such as ``codecs/zeta/fitted_exponent``, whose
    value differs between the two trees or that only one of them has."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return [] if got == want else [path]
    out = []
    for key in sorted(got.keys() | want.keys()):
        sub = f"{path}/{key}" if path else key
        if key in got and key in want:
            out += _differing_leaves(got[key], want[key], sub)
        else:
            out.append(sub)
    return out


def test_outputs_match_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    assert _differing_leaves(build(), want) == []
