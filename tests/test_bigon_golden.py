"""Bigon complexes, pinned.

``data/bigon_golden.json`` holds ``complex_from_diagram(two_bridge_diagram(p,
q)).to_json_dict()`` for the unknot pair (1, 1) and every coprime (p, q)
with even p <= 20, recorded while the Maslov shift was still taken from
the signature of ``linkdiag.two_bridge(p, q)``.  The shift now comes from
the total homology of the diagram's own filtered complex.  On the six
pairs where the diagram realises the other orientation, that moves every
Maslov grading by one common constant; everywhere else the complex is
unchanged byte for byte.
"""

import json
from pathlib import Path

import pytest

from hfl.heegaard import complex_from_diagram, two_bridge_diagram

GOLDEN = json.loads((Path(__file__).parent / "data" / "bigon_golden.json").read_text())
REORIENTED = {"14,5", "14,9", "18,7", "18,11", "20,7", "20,13"}


@pytest.mark.parametrize("key", sorted(GOLDEN, key=lambda k: tuple(map(int, k.split(",")))))
def test_bigon_complex_matches_golden(key):
    p, q = map(int, key.split(","))
    got = complex_from_diagram(two_bridge_diagram(p, q)).to_json_dict()
    want = GOLDEN[key]
    if key not in REORIENTED:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        return
    assert got["arrows"] == want["arrows"] and got["parity"] == want["parity"]
    assert [(g["id"], g["h2"]) for g in got["gens"]] == [(g["id"], g["h2"]) for g in want["gens"]]
    shifts = {a["d"] - b["d"] for a, b in zip(got["gens"], want["gens"])}
    assert len(shifts) == 1 and shifts != {0}
