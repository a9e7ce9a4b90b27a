"""From rank tables to filtered chain homotopy types and back.

A two-component alternating link determines not just a rank table but a
filtered complex, unique up to filtered homotopy equivalence, built out
of five model summands.  This script solves for that decomposition,
then interrogates the resulting complex three ways: spectral sequence
pages, total homology, and the two component projections.

Run:  python3 demos/filtered_types.py
"""

from hfl import linkdiag
from hfl.filtered import component_homology, spectral_pages, total_homology
from hfl.fixtures import fixture_complex
from hfl.homology import two_component_cfl_from_diagram
from hfl.summands import decompose, e_decomposition


def show_solved(name):
    cx, summands = two_component_cfl_from_diagram(linkdiag.corpus(name))
    print(f"--- {name} ---")
    print("summands: " + "  ".join(str(s) for s in summands))
    pages = spectral_pages(cx)
    for i, page in enumerate(pages):
        print(f"E{i + 1}: total rank {page.total_rank()}")
    th = total_homology(cx)
    print(f"total homology: {dict(sorted(th.items()))}")
    for direction in (1, 2):
        pairs, frees = e_decomposition(component_homology(cx, direction))
        print(f"collapsing coordinate {direction}: pairs {dict(pairs)}, "
              f"frees {dict(frees)}")
    print()


def show_transcribed(name):
    # a non-alternating seven-crossing link, entered arrow by arrow;
    # the solver cannot produce it but everything downstream still runs
    cx = fixture_complex(name)
    print(f"--- fixture {name} ({len(cx.gen_ids)} generators) ---")
    try:
        summands = decompose(cx)
    except ValueError as err:
        print(f"decompose: refused ({err})")
    else:
        print("summands: " + "  ".join(str(s) for s in summands))
    for i, page in enumerate(spectral_pages(cx)):
        print(f"E{i + 1}: total rank {page.total_rank()}")
    print()


if __name__ == "__main__":
    for name in ("hopf_plus", "torus_2_2n(3)", "two_bridge(8,3)"):
        show_solved(name)
    show_transcribed("l7n2")
    show_transcribed("l7n1")
