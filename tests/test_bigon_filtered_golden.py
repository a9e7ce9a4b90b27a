"""Filtered bigon complexes and their diagrams, pinned.

``data/bigon_filtered_golden.json`` holds, for the unknot pair (1, 1)
and every coprime (p, q) with even p <= 24, the filtered complex
``filtered_complex_from_diagram(two_bridge_diagram(p, q)).to_json_dict()``
(so also the arrows of bigons that cross z1 or z2) and the combinatorial
data of the diagram: the intersection points in order along each curve,
their signs, the sides of every region, the regions on either side of
every edge, the corners of every point, the basepoint regions and the
periodic domain.  It was recorded before the diagram geometry moved
from rational to integer coordinates and the bigon count from one graph
search per pair to one connecting domain per generator.
"""

import json
import math
from pathlib import Path

import pytest

from hfl.heegaard import filtered_complex_from_diagram, two_bridge_diagram

GOLDEN = json.loads((Path(__file__).parent / "data" / "bigon_filtered_golden.json").read_text())
PAIRS = [(1, 1)] + [(p, q) for p in range(2, 25, 2) for q in range(1, p) if math.gcd(p, q) == 1]


def diagram_json(d) -> dict:
    return {
        "alpha": list(d.alpha),
        "beta": list(d.beta),
        "sign": d.sign,
        "sides": {r: list(s) for r, s in d.sides.items()},
        "edges": [[kind, i, left, right] for (kind, i), (left, right) in sorted(d.edges.items())],
        "corners": {g: list(c) for g, c in d.corners.items()},
        "basepoints": d.basepoints,
        "periodic": d.periodic,
    }


def golden_entry(p: int, q: int) -> dict:
    d = two_bridge_diagram(p, q)
    return {"complex": filtered_complex_from_diagram(d).to_json_dict(), "diagram": diagram_json(d)}


def test_golden_covers_every_pair():
    assert sorted(GOLDEN) == sorted(f"{p},{q}" for p, q in PAIRS)


@pytest.mark.parametrize("p,q", PAIRS, ids=[f"b({p},{q})" for p, q in PAIRS])
def test_filtered_bigon_complex_matches_golden(p, q):
    got = golden_entry(p, q)
    want = GOLDEN[f"{p},{q}"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
