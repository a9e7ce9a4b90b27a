"""Outputs of the filtered-complex algebra and the Goeritz form, pinned.

``data/complex_golden.json`` was recorded before the GF(2) elimination,
the Gaussian cancellation and the rational LDL^T were each collapsed to
one kernel.  For every bundled fixture, six scrambled sums of model
summands, four sums mixed by dominated base changes and nine random
legal complexes in one to three coordinates it holds the complex, every
spectral page, both component homologies (generator ids included, which
the cancellation order decides) with their E-pairings, and the summand
list or the refusal of ``decompose``.  For the link corpus and every
two-bridge link b(p, q) with p <= 40 it holds the signature and the
Goeritz determinant.
"""

import json
from pathlib import Path

import pytest

from hfl.alexander import goeritz_determinant, signature
from hfl.filtered import FilteredComplex, component_homology, spectral_pages
from hfl.linkdiag import corpus
from hfl.summands import decompose, e_decomposition

GOLDEN = json.loads((Path(__file__).parent / "data" / "complex_golden.json").read_text())


def counter_list(counter):
    return sorted([*key, count] for key, count in counter.items())


def e_pairing(cx):
    pairs, frees = e_decomposition(cx)
    return {"pairs": counter_list(pairs), "frees": counter_list(frees)}


def outputs(cx):
    got = {"complex": cx.to_json_dict(), "pages": [p.to_json_dict() for p in spectral_pages(cx)]}
    got["component_homology"] = {}
    for i in range(1, cx.nvars + 1):
        part = component_homology(cx, i)
        entry = {"complex": part.to_json_dict()}
        if part.nvars == 1:
            entry["e_decomposition"] = e_pairing(part)
        got["component_homology"][str(i)] = entry
    if cx.nvars == 2:
        try:
            got["decompose"] = [str(s) for s in decompose(cx)]
        except ValueError as err:
            got["decompose"] = {"refused": str(err)}
    if cx.nvars == 1:
        got["e_decomposition"] = e_pairing(cx)
    return got


@pytest.mark.parametrize(
    "family", ["fixture:", "summand_sum:", "summand_sum_dominated:", "random_l"]
)
def test_golden_complexes(family):
    names = [name for name in GOLDEN["complexes"] if name.startswith(family)]
    assert names
    for name in names:
        want = GOLDEN["complexes"][name]
        cx = FilteredComplex.from_json_dict(want["complex"])
        assert outputs(cx) == want, name


def test_golden_signature_and_determinant():
    links = GOLDEN["links"]
    assert len(links) == 500
    for name, want in links.items():
        d = corpus(name)
        assert {"signature": signature(d), "goeritz_determinant": goeritz_determinant(d)} == want, name
