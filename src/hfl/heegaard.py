"""Bigon counting on genus-zero Heegaard diagrams for two-bridge links.

The diagram lives on the pillowcase: the sphere obtained from the flat
torus R^2/Z^2 by the involution z -> -z.  The image of the two
horizontal lines y = 1/4, 3/4 is a single circle (alpha), the image of
the two lines p*x - q*y = 1/4, 3/4 is a second circle (beta), and the
four fixed points of the involution become the basepoints w1, z1, w2,
z2.  The double cover of the sphere branched over the basepoints is the
torus again, and the preimage of alpha and beta cut it into standard
position for the two-bridge link b(p, q): alpha and beta meet in 2p
points, and the complement of the two curves has 2p + 2 regions.

``filtered_complex_from_diagram`` turns such a diagram into a filtered
chain complex over GF(2).  Generators are the intersection points.  The
differential counts embedded bigons (positive domains with exactly two
corners and multiplicities 0 or 1) that miss w1 and w2; a bigon that
covers z_i drops the i-th Alexander grading by one.
``complex_from_diagram`` keeps the arrows that drop no Alexander
grading, which are the bigons missing all four basepoints.

Relative Maslov gradings come from the combinatorial index of a
connecting domain, e(D) + n_x(D) + n_y(D) - 2 n_w(D), relative
Alexander gradings from n_z - n_w.  Both absolute lifts are read off
the diagram:

- Forgetting z1 and z2 leaves the sphere with two basepoints, whose
  Floer homology is GF(2) in Maslov gradings 0 and -1.  The Maslov
  shift puts the total homology of the filtered complex there, and any
  other total homology is refused.
- The Alexander shift centres the rank table so that it is symmetric
  under negation.

Forgetting z2 leaves the knot Floer homology of the first component, an
unknot, shifted by lk/2.  So the component homology in coordinate 2
sits at one Alexander level, and that level (in doubled units) is the
linking number of the orientation the diagram realises.
``oracle_compare`` reads it there and compares the bigon table with the
alternating-link table of the link so oriented.

All geometry is done in exact rational arithmetic.  The complex uses
nothing from ``alexander`` or ``homology``; only ``oracle_compare``
calls the alternating-link computation, so the two routes are
independent cross-checks of each other.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .filtered import (
    FilteredComplex,
    assoc_graded_homology,
    component_homology,
    total_homology,
    validate,
)
from . import linkdiag
from .homology import hfk_alternating_knot, hfl_alternating

__all__ = [
    "SphereDiagram",
    "two_bridge_diagram",
    "admissibility",
    "filtered_complex_from_diagram",
    "complex_from_diagram",
    "oracle_compare",
]

# alpha lifts to the lines y = +-A, beta to the lines p*x - q*y = +-C
_A = Fraction(1, 4)
_C = Fraction(1, 4)


def _frac(x) -> Fraction:
    """Reduce to the fundamental domain [0, 1)."""
    x = Fraction(x)
    return x - math.floor(x)


@dataclass
class SphereDiagram:
    """Two curves on the sphere with four basepoints.

    ``alpha`` and ``beta`` list the same intersection points in cyclic
    order along each curve; ``sign`` records the local intersection
    sign.  ``regions`` names the components of the complement, and
    ``sides`` places each region relative to the two curves: a pair
    (side of alpha, side of beta) with values 0 or 1.  ``edges`` maps
    ``("a", i)``, the arc of alpha from ``alpha[i]`` to the next point,
    and ``("b", k)`` likewise on beta, to the regions on its (left,
    right).  ``corners`` lists the four regions around each
    intersection point.  ``basepoints`` maps w1, z1, w2, z2 to the
    region containing each, and ``periodic`` is the periodic domain with
    multiplicity zero at every w, as its nonzero multiplicities (empty
    when there is none).
    """

    p: int
    q: int
    alpha: tuple
    beta: tuple
    sign: dict
    regions: tuple
    sides: dict
    edges: dict
    corners: dict
    basepoints: dict
    periodic: dict

    def check(self) -> None:
        """Validate the balanced placement of curves and basepoints."""
        if self.p >= 2:
            if len(self.regions) != len(self.alpha) + 2:
                raise ValueError("region count must exceed the intersection count by 2")
            if sorted(self.alpha) != sorted(self.beta):
                raise ValueError("alpha and beta must share the same intersection points")
            bp = self.basepoints
            for key in ("w1", "z1", "w2", "z2"):
                if bp.get(key) not in self.sides:
                    raise ValueError(f"basepoint {key} is not placed in a region")
            if len({bp[k] for k in ("w1", "z1", "w2", "z2")}) != 4:
                raise ValueError("basepoints must sit in four distinct regions")
            # w_i and z_i share a component of the alpha complement and of
            # the beta complement; the two pairs sit in opposite components.
            if self.sides[bp["w1"]] != self.sides[bp["z1"]]:
                raise ValueError("w1 and z1 must not be separated by either curve")
            if self.sides[bp["w2"]] != self.sides[bp["z2"]]:
                raise ValueError("w2 and z2 must not be separated by either curve")
            s1, s2 = self.sides[bp["w1"]], self.sides[bp["w2"]]
            if s1[0] == s2[0] or s1[1] == s2[1]:
                raise ValueError("the two basepoint pairs must sit in opposite sides")
            if self.periodic.get(bp["w1"]) or self.periodic.get(bp["w2"]):
                raise ValueError("the periodic domain must vanish at every w")
        elif self.basepoints.keys() != {"w1", "z1"}:
            raise ValueError("the degenerate diagram carries one basepoint pair")

    # -- domains -------------------------------------------------------

    def side_domain(self, which: str, side: int) -> dict:
        idx = 0 if which == "a" else 1
        return {r: 1 if self.sides[r][idx] == side else 0 for r in self.regions}

    def solve(self, coeffs: dict) -> dict:
        """Multiplicities with the given jump across each edge.

        ``coeffs`` maps edge ids to the required difference between the
        left and the right multiplicity; the solution is anchored at an
        arbitrary region, so only differences are meaningful.
        """
        m = {self.regions[0]: 0}
        queue = deque([self.regions[0]])
        touching = {}
        for eid, (left, right) in self.edges.items():
            cval = coeffs.get(eid, 0)
            touching.setdefault(left, []).append((right, -cval))
            touching.setdefault(right, []).append((left, cval))
        while queue:
            r = queue.popleft()
            for nb, delta in touching.get(r, ()):
                if nb not in m:
                    m[nb] = m[r] + delta
                    queue.append(nb)
        if len(m) != len(self.regions):
            raise ValueError("the complement of the curves is not connected")
        for eid, (left, right) in self.edges.items():
            if m[left] - m[right] != coeffs.get(eid, 0):
                raise ValueError("boundary data is not the boundary of a 2-chain")
        return m

    def arc(self, curve: str, g: str, h: str, forward: bool):
        """Walk curve ``"a"`` (alpha) or ``"b"`` (beta) from g to h.

        Returns the signed edge coefficients of the walk (+1 per edge
        crossed forward, -1 backward) and the points passed on the way.
        """
        points = self.alpha if curve == "a" else self.beta
        n = len(points)
        pos, k = points.index(g), points.index(h)
        step = 1 if forward else -1
        coeffs, interior = {}, set()
        while pos != k:
            coeffs[(curve, pos if forward else (pos - 1) % n)] = step
            pos = (pos + step) % n
            if pos != k:
                interior.add(points[pos])
        return coeffs, interior

    def connect(self, g: str, h: str, fa: bool = True, fb: bool = True) -> dict:
        """Some 2-chain whose boundary runs from g to h on alpha, back on beta."""
        coeffs = Counter(self.arc("a", g, h, fa)[0])
        coeffs.update(self.arc("b", h, g, fb)[0])
        return self.solve(coeffs)

    # -- measures ------------------------------------------------------

    def index(self, m: dict, g: str, h: str) -> Fraction:
        """Combinatorial Maslov index e(D) + n_g(D) + n_h(D).

        A region with c corners has Euler measure 1 - c/4, so e(D) is the
        sum of the multiplicities less the point measures of all the
        intersection points.  ``m`` gives every region a multiplicity.
        """
        def corners(x):
            return sum(m[r] for r in self.corners[x])

        four_e = 4 * sum(m.values()) - sum(corners(x) for x in self.alpha)
        return Fraction(four_e + corners(g) + corners(h), 4)

    def bigons(self, g: str, h: str, avoid) -> int:
        """Number of embedded bigons from g to h missing ``avoid`` regions."""
        count = 0
        there = [self.arc("a", g, h, fwd) for fwd in (True, False)]
        back = [self.arc("b", h, g, fwd) for fwd in (True, False)]
        for (ca, ia), (cb, ib) in product(there, back):
            if ia & ib or g in ib or h in ia:
                continue
            coeffs = Counter(ca)
            coeffs.update(cb)
            m = self.solve(coeffs)
            lo = min(m.values())
            m = {r: v - lo for r, v in m.items()}
            if any(v not in (0, 1) for v in m.values()):
                continue
            if all(v == 0 for v in m.values()):
                continue
            if any(m[r] for r in avoid):
                continue
            if sum(m[r] for r in self.corners[g]) != 1:
                continue
            if sum(m[r] for r in self.corners[h]) != 1:
                continue
            if self.index(m, g, h) != 1:
                raise ValueError("an embedded bigon must have index 1")
            count += 1
        return count


def _face(p: int, q: int, x, y) -> tuple:
    """Torus face (side of alpha, side of beta, sheet) containing a point."""
    yr = _frac(Fraction(y) + _A) - _A
    if yr in (_A, -_A):
        raise ValueError("point lies on an alpha curve")
    v = p * Fraction(x) - q * yr
    vr = _frac(v + _C) - _C
    if vr in (_C, -_C):
        raise ValueError("point lies on a beta curve")
    return (0 if yr < _A else 1, 0 if vr < _C else 1, int(v - vr) % p)


def two_bridge_diagram(p: int, q: int) -> SphereDiagram:
    """Genus-zero diagram for the two-bridge link b(p, q).

    ``p`` must be even (two components) and coprime to ``q`` with
    0 < q < p.  The degenerate pair (1, 1) gives the empty diagram for
    the unknot: no curves, one generator, one basepoint pair.
    """
    p, q = int(p), int(q)
    if p == 1 and q == 1:
        return SphereDiagram(
            p=1, q=1, alpha=(), beta=(), sign={}, regions=("r0",), sides={},
            edges={}, corners={}, basepoints={"w1": "r0", "z1": "r0"}, periodic={},
        )
    if p < 2 or not 0 < q < p:
        raise ValueError("need 0 < q < p (or the degenerate pair p = q = 1)")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    if p % 2:
        raise ValueError("odd p gives a knot; this diagram needs a two-component link")

    def face(x, y):
        return _face(p, q, x, y)

    # Intersection points in order along the alpha lift y = A; a point of
    # type t lies on the beta lift p*x - q*y = C (t = 0) or 1 - C (t = 1).
    coords = sorted(
        (_frac(Fraction(vt + q * _A + j, p)), t, j)
        for t, vt in ((0, _C), (1, 1 - _C))
        for j in range(p)
    )
    alpha = tuple(f"x{i}" for i in range(2 * p))
    x_of = {g: x for g, (x, _, _) in zip(alpha, coords)}
    sign = {g: 1 - 2 * t for g, (_, t, _) in zip(alpha, coords)}
    by_x = {x: g for g, x in x_of.items()}
    by_tj = {(t, j): g for g, (_, t, j) in zip(alpha, coords)}

    # Walk the beta curve: the lift v = C, parameterized by y in [0, p).
    crossings = []
    for m in range(p):
        crossings.append((_A + m, by_tj[(0, q * m % p)]))
        tau = 1 - _A + m
        name = by_x[_frac(-Fraction(_C + q * tau, p))]
        if sign[name] != -1:
            raise ValueError("beta walk hit a crossing of the wrong type")
        crossings.append((tau, name))
    crossings.sort()
    beta_tau = [tau for tau, _ in crossings]
    beta = tuple(name for _, name in crossings)

    # Regions: orbits of the torus faces under the folding z -> -z.
    invol = {}
    for key in product((0, 1), (0, 1), range(p)):
        iy, iv, j = key
        ym = Fraction(iy, 2)
        xm = (Fraction(iv, 2) + q * ym + j) / p
        if face(xm, ym) != key:
            raise ValueError("face sample point landed in the wrong face")
        invol[key] = face(-xm, -ym)
    if any(invol[img] != key for key, img in invol.items()):
        raise ValueError("the folding involution is not an involution on faces")
    orbits = sorted({min(key, img) for key, img in invol.items()})
    if len(orbits) != 2 * p + 2:
        raise ValueError("wrong number of regions on the sphere")
    regions = tuple(f"r{i}" for i in range(len(orbits)))
    region_of = {}
    for name, rep in zip(regions, orbits):
        region_of[rep] = region_of[invol[rep]] = name

    def region(x, y):
        return region_of[face(x, y)]

    half = Fraction(1, 2)
    basepoints = {
        "w1": region(0, 0), "z1": region(half, 0),
        "w2": region(0, half), "z2": region(half, half),
    }
    for key, img in invol.items():
        if (key == img) != (region_of[key] in basepoints.values()):
            raise ValueError("branch regions must be exactly the folded faces")

    ex, ey, ev = Fraction(1, 8 * p), Fraction(1, 8 * (q + 1)), Fraction(1, 8)
    n = 2 * p
    edges = {}
    for i in range(n):
        x0, x1 = x_of[alpha[i]], x_of[alpha[(i + 1) % n]] + (1 if i + 1 == n else 0)
        mid = _frac((x0 + x1) / 2)
        edges[("a", i)] = (region(mid, _A + ey), region(mid, _A - ey))
    for k in range(n):
        tm = (beta_tau[k] + beta_tau[(k + 1) % n] + (p if k + 1 == n else 0)) / 2
        edges[("b", k)] = (
            region((_C - ev + q * tm) / p, _frac(tm)),
            region((_C + ev + q * tm) / p, _frac(tm)),
        )
    if any(left == right for left, right in edges.values()):
        raise ValueError("an edge cannot bound the same region twice")

    corners = {}
    for g in alpha:
        x0 = x_of[g]
        quads = [face(x0 + ex, _A + ey), face(x0 - ex, _A + ey),
                 face(x0 - ex, _A - ey), face(x0 + ex, _A - ey)]
        if len(set(quads)) != 4:
            raise ValueError("corner sampling collapsed two quadrants")
        corners[g] = tuple(region_of[key] for key in quads)
    counts = Counter(r for quads in corners.values() for r in quads)
    if any(counts[r] != (2 if r in basepoints.values() else 4) for r in regions):
        raise ValueError("a region has the wrong number of corners")

    # The periodic domain: the alpha side 0 less the beta side 0, whose
    # boundary is made of whole curves.
    sides = {name: rep[:2] for name, rep in zip(regions, orbits)}
    periodic = {r: ib - ia for r, (ia, ib) in sides.items() if ib != ia}

    diagram = SphereDiagram(
        p=p, q=q, alpha=alpha, beta=beta, sign=sign, regions=regions, sides=sides,
        edges=edges, corners=corners, basepoints=basepoints, periodic=periodic,
    )
    diagram.check()
    return diagram


def admissibility(d: SphereDiagram) -> bool:
    """Every nonzero periodic domain with n_w = 0 must change sign.

    The group here has rank at most one, so checking the generator (its
    negation changes sign with it) covers all nonzero combinations.
    """
    vals = d.periodic.values()
    return not vals or (max(vals) > 0 > min(vals))


def _relative_gradings(d: SphereDiagram) -> dict:
    """Maslov and Alexander gradings of each generator, up to one shift.

    The Maslov difference of a connecting domain D is its index minus
    2(n_w1 + n_w2)(D); the Alexander differences are n_z - n_w per pair.
    Both are checked to be independent of the four choices of connecting
    arcs.  The index is linear in the domain, so the index congruence
    over the whole domain lattice (multiples of the two curve sides and
    of the whole sphere, added to any connecting domain) is checked once
    per lattice generator and endpoint.
    """
    w1, z1 = d.basepoints["w1"], d.basepoints["z1"]
    w2, z2 = d.basepoints["w2"], d.basepoints["z2"]
    base = d.alpha[0]
    rel = {}
    lattice = [d.side_domain("a", 0), d.side_domain("a", 1),
               d.side_domain("b", 0), d.side_domain("b", 1),
               {r: 1 for r in d.regions}]
    for g in d.alpha:
        for extra in lattice:
            if d.index(extra, base, g) != 2 * (extra[w1] + extra[w2]):
                raise ValueError("the Maslov index congruence fails on the domain lattice")
        seen = set()
        for fa, fb in product((True, False), repeat=2):
            m = d.connect(base, g, fa, fb)
            mas = d.index(m, base, g) - 2 * (m[w1] + m[w2])
            seen.add((mas, (m[z1] - m[w1], m[z2] - m[w2])))
        if len(seen) != 1:
            raise ValueError("relative gradings depend on the choice of connecting domain")
        mas, alex = seen.pop()
        if mas.denominator != 1:
            raise ValueError("relative Maslov gradings must be integers")
        rel[g] = (-int(mas), (-alex[0], -alex[1]))
    return rel


def filtered_complex_from_diagram(d: SphereDiagram) -> FilteredComplex:
    """Filtered GF(2) complex of a two-bridge diagram.

    Arrows count, modulo 2, the embedded bigons that miss w1 and w2; a
    bigon crosses each z at most once, so it drops each Alexander
    grading by 0 or 1.  The absolute Maslov grading puts the total
    homology, which is that of the sphere with two basepoints, in
    gradings 0 and -1; anything else is refused.  The absolute
    Alexander grading centres the homology rank table so it is symmetric
    under negation.
    """
    if d.p == 1:
        return FilteredComplex(1, (0,), [("x0", 0, (0,))])
    rel = _relative_gradings(d)
    avoid = (d.basepoints["w1"], d.basepoints["w2"])
    arrows = []
    for g in d.alpha:
        for h in d.alpha:
            if g == h or not d.bigons(g, h, avoid) % 2:
                continue
            if rel[g][0] - rel[h][0] != 1:
                raise ValueError("a bigon must drop the Maslov grading by exactly 1")
            if any(a - b not in (0, 1) for a, b in zip(rel[g][1], rel[h][1])):
                raise ValueError("a bigon must drop each Alexander grading by 0 or 1")
            arrows.append((g, h))

    provisional = FilteredComplex(
        2, (0, 0),
        [(g, mas, (2 * a1, 2 * a2)) for g, (mas, (a1, a2)) in rel.items()],
        arrows,
    )
    total = total_homology(provisional)
    dshift = -max(total, default=0)
    if {mas + dshift: r for mas, r in total.items()} != {0: 1, -1: 1}:
        raise ValueError(f"the bigon complex has total homology {total}, "
                         "not GF(2) in two adjacent gradings")
    table = assoc_graded_homology(provisional)
    size = sum(table.ranks.values())
    shift = []
    for i in (0, 1):
        center = Fraction(sum(r * h2[i] for (_, h2), r in table.ranks.items()), size)
        if center.denominator != 1:
            raise ValueError("the rank table cannot be centered on the grading lattice")
        shift.append(int(center))

    cx = FilteredComplex(
        2,
        ((-shift[0]) % 2, (-shift[1]) % 2),
        [
            (g, mas + dshift, (2 * a1 - shift[0], 2 * a2 - shift[1]))
            for g, (mas, (a1, a2)) in rel.items()
        ],
        arrows,
    )
    report = validate(cx)
    if not report:
        raise ValueError(f"the bigon complex fails validation: {report}")
    final = assoc_graded_homology(cx)
    for (mas, h2), r in final.ranks.items():
        partner = (mas - sum(h2), tuple(-x for x in h2))
        if final.rank(*partner) != r:
            raise ValueError("the normalized rank table is not symmetric")
    return cx


def complex_from_diagram(d: SphereDiagram) -> FilteredComplex:
    """The associated graded part of ``filtered_complex_from_diagram``.

    Its arrows are the bigons that miss all four basepoints: those that
    drop no Alexander grading.
    """
    cx = filtered_complex_from_diagram(d)
    kept = [(a, b) for a, b in cx.arrows if cx.filt2(a) == cx.filt2(b)]
    return FilteredComplex(cx.nvars, cx.parity, cx.gens(), kept)


def oracle_compare(p: int, q: int) -> bool:
    """Bigon counting against the alternating-link computation.

    Builds the rank table twice, once from the diagram and once from the
    Alexander polynomial and signature, and compares them exactly.  The
    link is oriented as the diagram is: the linking number read off the
    component homology in coordinate 2 picks ``linkdiag.two_bridge(p, q)``
    or that link with its second component reversed.
    """
    cx = filtered_complex_from_diagram(two_bridge_diagram(p, q))
    table = assoc_graded_homology(cx)
    if p == 1:
        return table == hfk_alternating_knot(linkdiag.corpus("unknot"))
    part = component_homology(cx, 2)
    levels = {part.filt2(g) for g in part.gen_ids}
    if len(levels) != 1:
        raise ValueError(f"the first component's homology spans Alexander levels {levels}")
    ((lk,),) = levels
    link = linkdiag.two_bridge(p, q)
    if linkdiag.linking_matrix(link).lk[0][1] != lk:
        link = linkdiag.reverse(link, 1)
    return table == hfl_alternating(link).table
