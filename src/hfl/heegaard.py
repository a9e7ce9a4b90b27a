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

The diagram realises Schubert's oriented link S(p, q), the link
``linkdiag.two_bridge(p, q)`` builds, and ``oracle_compare`` compares
the bigon table with that link's alternating-link table.  Forgetting z2
leaves the knot Floer homology of the first component, an unknot,
shifted by lk/2.  So the component homology in coordinate 2 sits at one
Alexander level, that level (in doubled units) is the linking number,
and ``oracle_compare`` checks it against the link's.

All geometry is integer arithmetic.  The pillowcase is scaled by
8p(q+1), which makes every coordinate the construction samples an
integer, and the index is kept as four times its value.  A domain is
packed into one integer with a slot of signed digits per region, so
adding the integers adds the domains.  The connecting domains of all
generators and the two whole curves come at once, per diagram, from
prefix sums along each curve of the packed solutions for single edges,
and so do their Euler measures, from the same sums of subtree weights
in the tree pass; the gradings and the lattice check read them there.
A pair's candidates are the difference of two connecting domains plus
whole curves: one read of four slots gives their corner sums at g, and
each, lowered by its least multiplicity, is tested as a whole integer,
with a popcount of its corner slots at h, so counting needs no search
and no loop over regions.
Only pairs with Maslov drop 1 and Alexander drops 0 or 1 are looked up,
by their grading keys: an embedded bigon has index 1, misses w1 and w2
and covers each z at most once, and the lattice congruence gives every
domain of a pair the pair's grading drops.

The complex uses nothing from ``alexander`` or ``homology``; only
``oracle_compare`` calls the alternating-link computation, so the two
routes are independent cross-checks of each other.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from typing import NamedTuple

from .filtered import (
    FilteredComplex,
    assoc_graded_homology,
    component_homology,
    first_difference,
    total_homology,
)
from . import linkdiag
from .homology import hfl_alternating
from .laurent import as_ints, fmt_half

__all__ = [
    "SphereDiagram",
    "two_bridge_diagram",
    "admissibility",
    "filtered_complex_from_diagram",
    "complex_from_diagram",
    "oracle_compare",
    "OracleReport",
]

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

    The domains are built on first use and kept with the diagram, so a
    diagram must not be changed once built; ``dataclasses.replace``
    makes a variant with its own domains.
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
            for g, quads in self.corners.items():
                if len(set(quads)) != 4:
                    raise ValueError(f"the four corner regions at {g} must be distinct")

    # -- domains -------------------------------------------------------

    @cached_property
    def _tree(self) -> tuple:
        """The regions other than ``regions[0]`` in breadth-first order.

        Each comes with the region it is reached from, the edge crossed
        and the sign that edge's coefficient takes in the step.
        """
        touching = {}
        for eid, (left, right) in self.edges.items():
            touching.setdefault(left, []).append((right, eid, -1))
            touching.setdefault(right, []).append((left, eid, 1))
        seen = {self.regions[0]}
        queue = deque(seen)
        tree = []
        while queue:
            r = queue.popleft()
            for nb, eid, sgn in touching.get(r, ()):
                if nb not in seen:
                    seen.add(nb)
                    tree.append((nb, r, eid, sgn))
                    queue.append(nb)
        if len(seen) != len(self.regions):
            raise ValueError("the complement of the curves is not connected")
        return tuple(tree)

    @cached_property
    def _domains(self) -> _Domains:
        """The connecting and whole-curve domains, and the per-point tables
        of ``bigons`` and ``_relative_gradings``, built once per diagram.

        phi_g connects ``alpha[0]`` to g along the arcs of both curves
        that do not run over the edge closing the curve (from its last
        point back to its first); A and B are bounded by all of alpha and
        all of beta.

        Multiplicities with given jumps across the edges, anchored at 0 on
        ``regions[0]``, follow down ``_tree``; they are linear in the jumps,
        and a unit jump on a tree edge gives +-1 on the subtree below it,
        so +-the subtree's weight 4 - (corner count) is its 4 e.  Each unit
        solution carries its defect, its jumps across all edges less the
        unit one, in slots above the regions'.  Prefix sums PA and PB along
        the two curves give phi_g = PA[pos_a g] + PB[pos_b alpha[0]] -
        PB[pos_b g], A = PA[n] and B = PB[n], each of defect 0, and the
        same sums of weights give euler[g] = 4 e(phi_g) and whole_euler =
        (4 e(A), 4 e(B)).  ``bigons`` takes one corner read of
        ``lifted[h]`` at g, less ``home[g]``, then a popcount of the
        lowered candidate on ``cmask[h]``.

        Each of these, and each candidate of ``bigons``, solves a chain
        with coefficients -1, 0 or 1, so a multiplicity is at most its
        region's depth in the tree, at most the tree's height H, in
        absolute value.  A candidate lowered by a value in its own range
        stays within 2H, and a defect within 2H + 1.  The least width with
        2H + 1 < 2^(width - 1) holds every digit exactly: no multiplicity
        can break the bound.
        """
        regions, tree = self.regions, self._tree
        depth = {regions[0]: 0}
        for r, parent, _, _ in tree:
            depth[r] = depth[parent] + 1
        width = (2 * max(depth.values()) + 1).bit_length() + 1
        shift = {r: width * k for k, r in enumerate(regions)}
        edge_bit = {e: 1 << width * k for k, e in enumerate(self.edges, len(regions))}
        counts = Counter(r for quads in self.corners.values() for r in quads)
        # a region's indicator with its edge jumps, and its weight, summed over subtrees
        sub = {r: 1 << s for r, s in shift.items()}
        wsub = {r: 4 - counts[r] for r in regions}
        for e, (left, right) in self.edges.items():
            sub[left] += edge_bit[e]
            sub[right] -= edge_bit[e]
        unit = {e: -bit for e, bit in edge_bit.items()}
        four_e = dict.fromkeys(edge_bit, 0)
        for r, parent, e, sgn in reversed(tree):
            unit[e] += sgn * sub[r]
            four_e[e] = sgn * wsub[r]
            sub[parent] += sub[r]
            wsub[parent] += wsub[r]

        n = len(self.alpha)
        pos_b = {g: k for k, g in enumerate(self.beta)}
        pa, pb, ea, eb = ([0, *accumulate(table[(c, k)] for k in range(n))]
                          for table in (unit, four_e) for c in "ab")
        anchor = pos_b[self.alpha[0]]
        phi = {g: pa[k] - pb[pos_b[g]] + pb[anchor] for k, g in enumerate(self.alpha)}
        euler = {g: ea[k] - eb[pos_b[g]] + eb[anchor] for k, g in enumerate(self.alpha)}

        ones = sum(1 << s for s in shift.values())
        offset = ones << width - 1
        lifted = {g: m + offset for g, m in phi.items()}
        whole = (pa[n] + offset, pb[n] + offset)
        for m in (*lifted.values(), *whole):
            if m >> width * len(regions):
                raise ValueError("boundary data is not the boundary of a 2-chain")
        corners = {g: tuple(shift[r] for r in quads) for g, quads in self.corners.items()}
        dom = _Domains(
            width=width, shift=shift, ones=ones,
            corners=corners, pos_a={g: k for k, g in enumerate(self.alpha)}, pos_b=pos_b,
            phi=phi, whole_a=pa[n], whole_b=pb[n], whole_corners={}, lifted=lifted, home={},
            cmask={g: sum(1 << s for s in quad) for g, quad in corners.items()},
            euler=euler, whole_euler=(ea[n], eb[n]), refuse={})
        return dom._replace(
            whole_corners={g: (dom.at(whole[0], g), dom.at(whole[1], g)) for g in self.alpha},
            home={g: dom.at(y, g) for g, y in lifted.items()})

    # -- measures ------------------------------------------------------

    def index(self, m: dict, g: str, h: str) -> Fraction:
        """Combinatorial Maslov index e(D) + n_g(D) + n_h(D) of the multiplicities
        ``m`` (0 where a region is missing), a region r having 4 e(r) = 4 -
        (r's corner count); read off ``m`` itself, nothing packed."""
        counts = Counter(r for quads in self.corners.values() for r in quads)
        four = sum(v * (4 - counts[r]) for r, v in m.items())
        four += sum(m.get(r, 0) for r in self.corners[g] + self.corners[h])
        return Fraction(four, 4)

    def bigons(self, g: str, h: str, avoid) -> int:
        """Number of embedded bigons from g to h missing ``avoid`` regions.

        A domain from g to h is bounded by an arc of alpha from g to h
        and an arc of beta back, and the two arcs of a curve between two
        points differ by the whole curve.  So the four candidates are
        phi_h - phi_g + i A + j B, with A and B the whole-curve domains,
        i one of i0, i0 - 1 and j one of j0, j0 - 1, where i0 (j0) is 1
        when the forward arc of alpha from g to h (of beta from h to g)
        runs over the edge that closes its curve, from the last point
        back to the first.  A bigon has corner sum 4 lo + 1 at g and at
        h, lo its least multiplicity.  Corner sums are linear: one read of
        four slots of ``lifted[h]``, less ``home[g]``, gives those at g.
        A candidate lowered by lo is one integer x, a bigon missing
        ``avoid`` exactly when its only bits are the lowest of region
        slots outside ``avoid`` (multiplicities 0 or 1) and one of them
        lies on h's four corner slots, distinct by ``check`` (corner sum
        1 at h).  Corner sum 1 at g makes some multiplicity 0 and some 1,
        and bounded by one arc of each curve on the sphere, such a domain
        is a disk, of index 1.  That no other positive index-1 domain
        missing w1 and w2 exists, one with a multiplicity above 1, say, is
        checked by enumeration for even p <= 20, not proved.
        """
        dom = self._domains
        i0 = int(dom.pos_a[g] > dom.pos_a[h])
        j0 = int(dom.pos_b[h] > dom.pos_b[g])
        diff = dom.phi[h] - dom.phi[g]
        whole_a, whole_b, ones, cmask = dom.whole_a, dom.whole_b, dom.ones, dom.cmask[h]
        avoid = tuple(avoid)
        refuse = dom.refuse.get(avoid)
        if refuse is None:
            refuse = dom.refuse[avoid] = ~ones | sum(1 << dom.shift[r] for r in avoid)
        at_g = dom.at(dom.lifted[h], g) - dom.home[g]
        a_g, b_g = dom.whole_corners[g]
        count = 0
        for i, j in ((i0 - 1, j0 - 1), (i0 - 1, j0), (i0, j0 - 1), (i0, j0)):
            c = at_g + i * a_g + j * b_g
            if c % 4 == 1:
                x = diff + i * whole_a + j * whole_b - c // 4 * ones
                if not x & refuse and (x & cmask).bit_count() == 1:
                    count += 1
        return count


class _Domains(NamedTuple):
    """Domains of a diagram, each packed into one integer, and their Euler measures.

    A domain with multiplicity m_r in region r is the sum of
    m_r * 2^shift[r]: one slot of ``width`` bits per region, holding a
    signed digit.  The packing is linear, so adding or scaling the
    integers adds or scales the domains, and ``_domains`` bounds every
    digit of the domains it builds by 2^(width - 1) in absolute value.
    """

    width: int         # bits per slot
    shift: dict        # region -> bit offset of its slot
    ones: int          # 1 in every region slot: the whole sphere
    corners: dict      # point -> slot offsets of its four corner regions
    pos_a: dict        # point -> index along alpha
    pos_b: dict        # point -> index along beta
    phi: dict          # point g -> phi_g, a connecting domain from alpha[0] to g
    whole_a: int       # A, a domain bounded by all of alpha
    whole_b: int       # B, a domain bounded by all of beta
    whole_corners: dict  # point x -> (4 n_x(A), 4 n_x(B))
    lifted: dict       # point g -> phi_g plus half a slot in every region, so no slot borrows
    home: dict         # point g -> 4 n_g(phi_g)
    cmask: dict        # point g -> the lowest bit of each of g's corner slots
    euler: dict        # point g -> 4 e(phi_g)
    whole_euler: tuple  # (4 e(A), 4 e(B))
    refuse: dict       # avoided regions -> the bits no lowered bigon may hold, on first use

    def digits(self, m: int, shifts) -> list:
        """Multiplicities of the packed domain ``m`` in the slots at ``shifts``."""
        half = 1 << self.width - 1
        # half added to every slot makes each digit nonnegative, so none borrows
        y = m + half * self.ones
        return [(y >> s & 2 * half - 1) - half for s in shifts]

    def at(self, y: int, x: str) -> int:
        """4 n_x(D) from four slots of ``y``, which is D plus half a slot per region."""
        mask = (1 << self.width) - 1
        s0, s1, s2, s3 = self.corners[x]
        return ((y >> s0 & mask) + (y >> s1 & mask) + (y >> s2 & mask) + (y >> s3 & mask)
                - (4 << self.width - 1))


def two_bridge_diagram(p: int, q: int) -> SphereDiagram:
    """Genus-zero diagram for Schubert's oriented two-bridge link S(p, q).

    ``p`` must be even (two components) and coprime to ``q`` with
    0 < q < p.  The degenerate pair (1, 1) gives the empty diagram for
    the unknot: no curves, one generator, one basepoint pair.

    The sampling below is checked where its results are used: a wrong
    face, fold, basepoint or crossing fails ``SphereDiagram.check``, a
    wrong edge leaves ``_tree`` a disconnected complement, and a wrong
    corner breaks the lattice congruence of ``_relative_gradings``.
    """
    p, q = as_ints((p, q), "two-bridge parameter")
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

    # Integer coordinates in units of 1/s, s = 8p(q+1): alpha lifts to
    # y = +-a, beta to p*x - q*y = +-a, the basepoints are the half-periods,
    # and the sample offsets s/(8p), s/(8(q+1)) and s/8 are integers too.
    s = 8 * p * (q + 1)
    a, half = s // 4, s // 2

    def face(x, y):
        """Torus face (side of alpha, side of beta, sheet) of a point on
        neither curve."""
        yr = (y + a) % s - a
        v = p * x - q * yr
        vr = (v + a) % s - a
        return (0 if yr < a else 1, 0 if vr < a else 1, (v - vr) // s % p)

    # Intersection points in order along the alpha lift y = a; a point of
    # type t lies on the beta lift p*x - q*y = a (t = 0) or s - a (t = 1).
    coords = sorted(((vt + q * a + j * s) // p % s, t, j)
                    for t, vt in ((0, a), (1, s - a)) for j in range(p))
    alpha = tuple(f"x{i}" for i in range(2 * p))
    x_of = {g: x for g, (x, _, _) in zip(alpha, coords)}
    sign = {g: 1 - 2 * t for g, (_, t, _) in zip(alpha, coords)}
    by_x = {x: g for g, x in x_of.items()}
    by_tj = {(t, j): g for g, (_, t, j) in zip(alpha, coords)}

    # Walk the beta curve: the lift v = a, parameterized by y in [0, p*s).
    crossings = []
    for m in range(p):
        crossings.append((a + m * s, by_tj[(0, q * m % p)]))
        tau = s - a + m * s
        crossings.append((tau, by_x[-(a + q * tau) // p % s]))
    crossings.sort()
    beta_tau = [tau for tau, _ in crossings]
    beta = tuple(name for _, name in crossings)

    # Regions: orbits of the torus faces under the folding z -> -z.
    invol = {}
    for key in product((0, 1), (0, 1), range(p)):
        iy, iv, j = key
        ym = iy * half
        xm = (iv * half + q * ym + j * s) // p
        invol[key] = face(-xm, -ym)
    orbits = sorted({min(key, img) for key, img in invol.items()})
    regions = tuple(f"r{i}" for i in range(len(orbits)))
    region_of = {}
    for name, rep in zip(regions, orbits):
        region_of[rep] = region_of[invol[rep]] = name

    def region(x, y):
        return region_of[face(x, y)]

    basepoints = {
        "w1": region(0, 0), "z1": region(half, 0),
        "w2": region(0, half), "z2": region(half, half),
    }

    # Sample offsets: s/(8p) along alpha, s/(8(q+1)) across it, s/8 across beta.
    ex, ey, ev = q + 1, p, p * (q + 1)
    n = 2 * p
    edges = {}
    for i in range(n):
        x0, x1 = x_of[alpha[i]], x_of[alpha[(i + 1) % n]] + (s if i + 1 == n else 0)
        mid = (x0 + x1) // 2
        edges[("a", i)] = (region(mid, a + ey), region(mid, a - ey))
    for k in range(n):
        tm = (beta_tau[k] + beta_tau[(k + 1) % n] + (p * s if k + 1 == n else 0)) // 2
        edges[("b", k)] = (
            region((a - ev + q * tm) // p, tm),
            region((a + ev + q * tm) // p, tm),
        )

    corners = {}
    for g in alpha:
        x0 = x_of[g]
        quads = [face(x0 + ex, a + ey), face(x0 - ex, a + ey),
                 face(x0 - ex, a - ey), face(x0 + ex, a - ey)]
        corners[g] = tuple(region_of[key] for key in quads)

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
    Any two connecting domains from alpha[0] to g differ by a lattice
    element: a sum of multiples of the two whole-curve domains and of
    the whole sphere.  All three measures are linear in the domain, so
    they are independent of the choice once each lattice generator has
    index 2(n_w1 + n_w2) (checked at every endpoint g, which the index
    reads only through the corner sum at g) and n_z = n_w per pair.  The
    index is kept as four times its value: 4 e of A and B is
    ``whole_euler``, and that of phi_g is ``euler[g]`` + ``home[g]`` +
    one corner read at ``alpha[0]``.  Only A and B are checked.  The
    sphere needs no check: on every diagram ``SphereDiagram.check``
    accepts, its four corner regions at each point are distinct, so each
    corner sum is 4, and the four basepoints sit in distinct regions of
    multiplicity 1, so its condition reads 8 + 4 + 4 == 8 (1 + 1) and
    z == w.
    """
    dom = d._domains
    bp_shifts = [dom.shift[d.basepoints[k]] for k in ("w1", "z1", "w2", "z2")]
    base = d.alpha[0]
    # corner sums at each point, in the order of alpha
    at_a, at_b = zip(*(dom.whole_corners[g] for g in d.alpha))
    ea, eb = dom.whole_euler
    lattice = [(dom.digits(extra, bp_shifts), four_e, at)
               for extra, four_e, at in ((dom.whole_a, ea, at_a), (dom.whole_b, eb, at_b))]
    for (w1, _, w2, _), four_e, at in lattice:
        if any(four_e + at[0] + c != 8 * (w1 + w2) for c in at):
            raise ValueError("the Maslov index congruence fails on the domain lattice")
    if any(z1 != w1 or z2 != w2 for (w1, z1, w2, z2), _, _ in lattice):
        raise ValueError("relative gradings depend on the choice of connecting domain")
    rel = {}
    for g in d.alpha:
        w1, z1, w2, z2 = dom.digits(dom.phi[g], bp_shifts)
        four_mas = dom.euler[g] + dom.home[g] + dom.at(dom.lifted[g], base) - 8 * (w1 + w2)
        rel[g] = (-four_mas // 4, (w1 - z1, w2 - z2))
    return rel


def filtered_complex_from_diagram(d: SphereDiagram) -> FilteredComplex:
    """Filtered GF(2) complex of a two-bridge diagram.

    Arrows count, modulo 2, the embedded bigons that miss w1 and w2; a
    bigon has index 1 and crosses each z at most once, so it drops the
    Maslov grading by 1 and each Alexander grading by 0 or 1.  Only the
    pairs with those relative drops are counted, looked up by their
    grading keys.  The absolute Maslov grading puts the total homology,
    which is that of the sphere with two basepoints, in gradings 0 and
    -1; anything else is refused.  The absolute Alexander grading
    centres the homology rank table so it is symmetric under negation.
    """
    if d.p == 1:
        return FilteredComplex(1, (0,), [("x0", 0, (0,))])
    rel = _relative_gradings(d)
    avoid = (d.basepoints["w1"], d.basepoints["w2"])
    by_key = {}
    for h, key in rel.items():
        by_key.setdefault(key, []).append(h)
    arrows = []
    for g, (mas, (a1, a2)) in rel.items():
        for d1, d2 in product((0, 1), repeat=2):
            for h in by_key.get((mas - 1, (a1 - d1, a2 - d2)), ()):
                if d.bigons(g, h, avoid) % 2:
                    arrows.append((g, h))
    arrows = frozenset(arrows)

    # the ids, int gradings and even levels are made here, so the
    # complexes are built without the constructor's checks
    provisional = FilteredComplex._trusted(
        2, (0, 0),
        {g: mas for g, (mas, _) in rel.items()},
        {g: (2 * a1, 2 * a2) for g, (_, (a1, a2)) in rel.items()},
        arrows,
    )
    total = total_homology(provisional)
    dshift = -max(total, default=0)
    if {mas + dshift: r for mas, r in total.items()} != {0: 1, -1: 1}:
        raise ValueError(f"the bigon complex has total homology {total}, "
                         "not GF(2) in two adjacent gradings")
    table = assoc_graded_homology(provisional)
    size = sum(table.ranks.values())
    shift = [sum(r * h2[i] for (_, h2), r in table.ranks.items()) // size for i in (0, 1)]

    return FilteredComplex._trusted(
        2,
        ((-shift[0]) % 2, (-shift[1]) % 2),
        {g: mas + dshift for g, (mas, _) in rel.items()},
        {g: (2 * a1 - shift[0], 2 * a2 - shift[1]) for g, (_, (a1, a2)) in rel.items()},
        arrows,
    )


def complex_from_diagram(d: SphereDiagram) -> FilteredComplex:
    """The associated graded part of ``filtered_complex_from_diagram``.

    Its arrows are the bigons that miss all four basepoints: those that
    drop no Alexander grading.
    """
    cx = filtered_complex_from_diagram(d)
    kept = frozenset((a, b) for a, b in cx.arrows if cx.filt2(a) == cx.filt2(b))
    return FilteredComplex._trusted(cx.nvars, cx.parity, cx._maslov, cx._filt, kept)


@dataclass(frozen=True)
class OracleReport:
    """What ``oracle_compare`` compared, and where the tables first differ.

    Truthy exactly when the linking numbers agree and the bigon table
    equals the alternating-link table.  ``lk`` is the linking number
    read off the diagram and ``link_lk`` that of
    ``linkdiag.two_bridge(p, q)`` (both None for the unknot).  ``cell``
    is ``filtered.first_difference`` of the bigon and alternating ranks.
    """

    p: int
    q: int
    match: bool
    lk: int | None
    link_lk: int | None
    cell: tuple | None

    def __bool__(self) -> bool:
        return self.match

    def __str__(self) -> str:
        if self.lk is None:
            link = "the unknot"
        else:
            link = f"linkdiag.two_bridge({self.p},{self.q})"
            if self.lk != self.link_lk:
                return (f"linking numbers differ for {link}: lk = {self.lk} read off "
                        f"the diagram, lk = {self.link_lk} from linking_matrix")
            link += f" (lk = {self.lk})"
        if self.match:
            return f"tables agree for {link}"
        if self.cell is None:
            return f"tables differ for {link}"
        d, h2, mine, theirs = self.cell
        level = "(" + ",".join(map(fmt_half, h2)) + ")"
        return (f"tables differ for {link} first at h={level} d={d}: "
                f"bigon rank {mine}, alternating rank {theirs}")


def oracle_compare(p: int, q: int) -> OracleReport:
    """Bigon counting against the alternating-link computation.

    Builds the rank table twice, once from the diagram and once from the
    Alexander polynomial and signature of ``linkdiag.two_bridge(p, q)``,
    and compares them exactly.  Both name Schubert's S(p, q); the
    linking number read off the component homology in coordinate 2 is
    checked against the one ``linking_matrix`` gives the link.
    """
    p, q = as_ints((p, q), "two-bridge parameter")
    cx = filtered_complex_from_diagram(two_bridge_diagram(p, q))
    table = assoc_graded_homology(cx)
    lk = link_lk = None
    if p == 1:
        link = linkdiag.corpus("unknot")
    else:
        part = component_homology(cx, 2)
        # an unknot's homology sits at one level; unpacking refuses any other
        ((lk,),) = {part.filt2(g) for g in part.gen_ids}
        link = linkdiag.two_bridge(p, q)
        link_lk = linkdiag.linking_matrix(link).lk[0][1]
    alt = hfl_alternating(link).table
    cell = first_difference(table.ranks, alt.ranks)
    return OracleReport(p, q, lk == link_lk and table == alt, lk, link_lk, cell)
