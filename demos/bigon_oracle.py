"""Count bigons on a sphere and compare with the algebraic answer.

Two-bridge links admit diagrams on the round sphere with one alpha and
one beta curve and four marked points, so the differential is a count
of embedded bigons, found here by integer arithmetic on the pillowcase
scaled by 8p(q+1), with the Maslov index kept as four times its value,
and no Floer theory in the loop.  The diagram also fixes its own
gradings: the total homology sets the Maslov grading, and the first
component's homology gives the linking number.  The same tables also
fall out of the Alexander polynomial and signature of the same oriented
link through a completely separate code path; this script builds both
and diffs them.

Run:  python3 demos/bigon_oracle.py
"""

from hfl.filtered import assoc_graded_homology, total_homology
from hfl.heegaard import filtered_complex_from_diagram, oracle_compare, two_bridge_diagram


def show(p, q):
    d = two_bridge_diagram(p, q)
    print(f"--- two-bridge ({p},{q}) ---")
    print(f"generators: {len(d.alpha)}, regions: {len(d.regions)}, "
          f"periodic-domain rank: {int(bool(d.periodic))}")
    cx = filtered_complex_from_diagram(d)
    graded = sum(cx.filt2(a) == cx.filt2(b) for a, b in cx.arrows)
    print(f"complex: {len(cx.gen_ids)} generators, {len(cx.arrows)} bigon arrows "
          f"({graded} missing the z basepoints)")
    print(f"total homology by Maslov grading: {total_homology(cx)}")
    print(assoc_graded_homology(cx).table_str())
    print(f"alternating-link pipeline: {oracle_compare(p, q)}")
    print()


if __name__ == "__main__":
    for p, q in ((2, 1), (6, 1), (8, 3), (8, 5), (14, 5)):
        show(p, q)
