"""Walk through the rank tables of the bundled alternating links.

For an alternating projection the whole multi-graded rank table is a
function of the Alexander polynomial and the signature; this script
computes both invariants from the diagram and prints the resulting
table with its Euler identity and grading symmetry checks.

Run:  python3 demos/alternating_tables.py
"""

from hfl import linkdiag
from hfl.homology import collapse_to_hfk, hfl_alternating


def show_knot(name):
    rep = hfl_alternating(linkdiag.corpus(name))
    print(f"--- {name}  (knot, sigma = {rep.sigma}) ---")
    print(f"Alexander polynomial: {rep.delta}")
    print(rep.table.table_str())
    print(f"  euler_hat: {'ok' if rep.euler_ok else 'FAILED'}")
    print(f"  symmetry: {'ok' if rep.symmetry_ok else 'FAILED'}")
    print()


def show_link(name):
    rep = hfl_alternating(linkdiag.corpus(name))
    lk = rep.linking[0][1]
    print(f"--- {name}  (linking number {lk}, sigma = {rep.sigma}) ---")
    print(f"Alexander polynomial: {rep.delta}")
    print(rep.table.table_str())
    print(f"  euler identity: {'ok' if rep.euler_ok else 'FAILED'}")
    print(f"  symmetry:       {'ok' if rep.symmetry_ok else 'FAILED'}")
    # collapsing the per-component filtrations to their sum gives the
    # single-variable table of the link seen as one knotted object
    print("  collapsed to one grading:")
    for line in collapse_to_hfk(rep.table).table_str().splitlines():
        print(f"    {line}")
    print()


if __name__ == "__main__":
    for name in ("trefoil_right", "figure8"):
        show_knot(name)
    for name in ("hopf_plus", "torus_2_2n(2)", "two_bridge(8,3)"):
        show_link(name)
