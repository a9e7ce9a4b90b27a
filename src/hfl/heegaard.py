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

``complex_from_diagram`` turns such a diagram into a filtered chain
complex over GF(2).  Generators are the intersection points.  The
differential counts embedded bigons (positive domains with exactly two
corners and multiplicities 0 or 1) that miss all four basepoints.
Relative Maslov gradings come from the combinatorial index of a
connecting domain, e(D) + n_x(D) + n_y(D), relative Alexander gradings
from n_z - n_w; the absolute lift is fixed by the symmetry of the rank
table and the total homology of the complex.  All geometry is done in
exact rational arithmetic.

This route to the rank table shares no code with the alternating-link
computation in ``homology``, which makes the two usable as independent
cross-checks (``oracle_compare``).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .alexander import signature
from .filtered import FilteredComplex, assoc_graded_homology, validate
from . import linkdiag
from .homology import hfk_alternating_knot, hfl_alternating

__all__ = [
    "Domain",
    "PeriodicDomainGroup",
    "SphereDiagram",
    "two_bridge_diagram",
    "admissibility",
    "complex_from_diagram",
    "oracle_compare",
]


def _frac(x) -> Fraction:
    """Reduce to the fundamental domain [0, 1)."""
    x = Fraction(x)
    return x - math.floor(x)


@dataclass
class Domain:
    """A 2-chain on the diagram: an integer multiplicity per region."""

    mult: dict

    def n(self, region: str) -> int:
        return self.mult.get(region, 0)

    def is_positive(self) -> bool:
        return all(v >= 0 for v in self.mult.values())

    def mixed_signs(self) -> bool:
        vals = self.mult.values()
        return any(v > 0 for v in vals) and any(v < 0 for v in vals)


@dataclass
class PeriodicDomainGroup:
    """Basis of the periodic domains with multiplicity zero at every w."""

    basis: tuple

    def rank(self) -> int:
        return len(self.basis)


@dataclass
class SphereDiagram:
    """Two curves on the sphere with four basepoints.

    ``alpha`` and ``beta`` list the same intersection points in cyclic
    order along each curve; ``sign`` records the local intersection
    sign.  ``regions`` names the components of the complement,
    ``adjacency`` the regions sharing an edge, and ``sides`` places each
    region relative to the two curves: a pair (side of alpha, side of
    beta) with values 0 or 1.  ``basepoints`` maps w1, z1, w2, z2 to the
    region containing each.
    """

    p: int
    q: int
    alpha: tuple
    beta: tuple
    sign: dict
    regions: tuple
    adjacency: dict
    sides: dict
    basepoints: dict
    periodic: PeriodicDomainGroup
    geometry: object = field(default=None, repr=False, compare=False)

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
        elif self.basepoints.keys() != {"w1", "z1"}:
            raise ValueError("the degenerate diagram carries one basepoint pair")


class _Pillow:
    """Exact geometry of the quotient-of-torus diagram for b(p, q)."""

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        self.a = Fraction(1, 4)
        self.c = Fraction(1, 4)
        self.ex = Fraction(1, 8 * p)
        self.ey = Fraction(1, 8 * (q + 1))
        self.ev = Fraction(1, 8)
        self._build_generators()
        self._build_regions()
        self._build_edges()
        self._build_corners()

    # -- point location ------------------------------------------------

    def loc(self, x, y):
        """Torus face (side of alpha, side of beta, sheet) containing a point."""
        yr = _frac(Fraction(y) + self.a) - self.a
        if yr in (self.a, -self.a):
            raise ValueError("point lies on an alpha curve")
        iy = 0 if yr < self.a else 1
        v = self.p * Fraction(x) - self.q * yr
        vr = _frac(v + self.c) - self.c
        if vr in (self.c, -self.c):
            raise ValueError("point lies on a beta curve")
        iv = 0 if vr < self.c else 1
        j = int(v - vr) % self.p
        return (iy, iv, j)

    def _face_point(self, key):
        iy, iv, j = key
        ym = Fraction(0) if iy == 0 else Fraction(1, 2)
        vm = Fraction(0) if iv == 0 else Fraction(1, 2)
        return (Fraction(vm + self.q * ym + j, self.p), ym)

    # -- intersection points -------------------------------------------

    def _build_generators(self) -> None:
        p, q, a, c = self.p, self.q, self.a, self.c
        coords = []
        for t, vt in ((0, c), (1, 1 - c)):
            for j in range(p):
                coords.append((_frac(Fraction(vt + q * a + j, p)), t, j))
        coords.sort()
        self.alpha = tuple(f"x{i}" for i in range(2 * p))
        self.x_of = {name: coords[i][0] for i, name in enumerate(self.alpha)}
        self.type_of = {name: coords[i][1] for i, name in enumerate(self.alpha)}
        by_x = {coords[i][0]: name for i, name in enumerate(self.alpha)}
        by_tj = {(coords[i][1], coords[i][2]): name for i, name in enumerate(self.alpha)}

        # Walk the beta curve: the lift v = c, parameterized by y in [0, p).
        crossings = []
        for m in range(p):
            tau = a + m
            crossings.append((tau, by_tj[(0, q * m % p)]))
            tau = (1 - a) + m
            x_here = _frac(Fraction(c + q * tau, p))
            name = by_x[_frac(-x_here)]
            if self.type_of[name] != 1:
                raise ValueError("beta walk hit a crossing of the wrong type")
            crossings.append((tau, name))
        crossings.sort()
        self.beta_tau = tuple(tau for tau, _ in crossings)
        self.beta = tuple(name for _, name in crossings)
        if sorted(self.beta) != sorted(self.alpha):
            raise ValueError("beta walk missed an intersection point")
        self.sign = {g: 1 if self.type_of[g] == 0 else -1 for g in self.alpha}

    # -- regions -------------------------------------------------------

    def _build_regions(self) -> None:
        p = self.p
        faces = [(iy, iv, j) for iy in (0, 1) for iv in (0, 1) for j in range(p)]
        invol = {}
        for key in faces:
            xm, ym = self._face_point(key)
            if self.loc(xm, ym) != key:
                raise ValueError("face sample point landed in the wrong face")
            invol[key] = self.loc(-xm, -ym)
        for key, img in invol.items():
            if invol[img] != key:
                raise ValueError("the folding involution is not an involution on faces")
        orbits = sorted({min(key, invol[key]) for key in faces})
        if len(orbits) != 2 * p + 2:
            raise ValueError("wrong number of regions on the sphere")
        self.regions = tuple(f"r{i}" for i in range(len(orbits)))
        self.region_of = {}
        self.sides = {}
        for i, rep in enumerate(orbits):
            name = self.regions[i]
            for key in {rep, invol[rep]}:
                self.region_of[key] = name
            self.sides[name] = (rep[0], rep[1])

        half = Fraction(1, 2)
        self.branch = {
            (0, 0): self.region_of[self.loc(0, 0)],
            (1, 0): self.region_of[self.loc(half, 0)],
            (0, 1): self.region_of[self.loc(0, half)],
            (1, 1): self.region_of[self.loc(half, half)],
        }
        if len(set(self.branch.values())) != 4:
            raise ValueError("branch points must sit in four distinct regions")
        for key, img in invol.items():
            if (key == img) != (self.region_of[key] in self.branch.values()):
                raise ValueError("branch regions must be exactly the folded faces")
        self.e_measure = {
            r: Fraction(1, 2) if r in self.branch.values() else Fraction(0)
            for r in self.regions
        }

    # -- edges ---------------------------------------------------------

    def _build_edges(self) -> None:
        p, q, a, c = self.p, self.q, self.a, self.c
        n = 2 * p
        self.edges = []
        for i in range(n):
            x0 = self.x_of[self.alpha[i]]
            x1 = self.x_of[self.alpha[(i + 1) % n]]
            if i + 1 == n:
                x1 += 1
            mid = _frac(Fraction(x0 + x1, 2))
            left = self.region_of[self.loc(mid, a + self.ey)]
            right = self.region_of[self.loc(mid, a - self.ey)]
            self.edges.append((("a", i), self.alpha[i], self.alpha[(i + 1) % n], left, right))
        for k in range(n):
            t0 = self.beta_tau[k]
            t1 = self.beta_tau[(k + 1) % n]
            if k + 1 == n:
                t1 += p
            tm = Fraction(t0 + t1, 2)
            left = self.region_of[self.loc(Fraction(c - self.ev + q * tm, p), _frac(tm))]
            right = self.region_of[self.loc(Fraction(c + self.ev + q * tm, p), _frac(tm))]
            self.edges.append((("b", k), self.beta[k], self.beta[(k + 1) % n], left, right))
        for _, _, _, left, right in self.edges:
            if left == right:
                raise ValueError("an edge cannot bound the same region twice")

    def _build_corners(self) -> None:
        a = self.a
        self.corners = {}
        for g in self.alpha:
            x0 = self.x_of[g]
            quads = [
                self.loc(x0 + self.ex, a + self.ey),
                self.loc(x0 - self.ex, a + self.ey),
                self.loc(x0 - self.ex, a - self.ey),
                self.loc(x0 + self.ex, a - self.ey),
            ]
            if len(set(quads)) != 4:
                raise ValueError("corner sampling collapsed two quadrants")
            self.corners[g] = tuple(self.region_of[key] for key in quads)
        counts = Counter()
        for quads in self.corners.values():
            counts.update(quads)
        for r in self.regions:
            want = 2 if self.e_measure[r] else 4
            if counts[r] != want:
                raise ValueError("a region has the wrong number of corners")

    # -- domains -------------------------------------------------------

    def solve(self, coeffs: dict) -> dict:
        """Multiplicities with the given jump across each edge.

        ``coeffs`` maps edge ids to the required difference between the
        left and the right multiplicity; the solution is anchored at an
        arbitrary region, so only differences are meaningful.
        """
        constraints = []
        for eid, _, _, left, right in self.edges:
            constraints.append((left, right, coeffs.get(eid, 0)))
        m = {self.regions[0]: 0}
        queue = deque([self.regions[0]])
        touching = {}
        for left, right, cval in constraints:
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
        for left, right, cval in constraints:
            if m[left] - m[right] != cval:
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
        ca, _ = self.arc("a", g, h, fa)
        cb, _ = self.arc("b", h, g, fb)
        coeffs = dict(ca)
        for eid, cval in cb.items():
            coeffs[eid] = coeffs.get(eid, 0) + cval
        return self.solve(coeffs)

    # -- measures ------------------------------------------------------

    def point_measure(self, m: dict, g: str) -> Fraction:
        return Fraction(sum(m[r] for r in self.corners[g]), 4)

    def index(self, m: dict, g: str, h: str) -> Fraction:
        """Combinatorial Maslov index e(D) + n_g(D) + n_h(D)."""
        e = sum(self.e_measure[r] * m[r] for r in self.regions)
        return e + self.point_measure(m, g) + self.point_measure(m, h)

    def side_domain(self, which: str, side: int) -> dict:
        idx = 0 if which == "a" else 1
        return {r: 1 if self.sides[r][idx] == side else 0 for r in self.regions}

    def bigons(self, g: str, h: str, avoid) -> int:
        """Number of embedded bigons from g to h missing ``avoid`` regions."""
        count = 0
        for fa in (True, False):
            ca, ia = self.arc("a", g, h, fa)
            for fb in (True, False):
                cb, ib = self.arc("b", h, g, fb)
                if ia & ib or g in ib or h in ia:
                    continue
                coeffs = dict(ca)
                for eid, cval in cb.items():
                    coeffs[eid] = coeffs.get(eid, 0) + cval
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


def two_bridge_diagram(p: int, q: int) -> SphereDiagram:
    """Genus-zero diagram for the two-bridge link b(p, q).

    ``p`` must be even (two components) and coprime to ``q`` with
    0 < q < p.  The degenerate pair (1, 1) gives the empty diagram for
    the unknot: no curves, one generator, one basepoint pair.
    """
    p, q = int(p), int(q)
    if p == 1 and q == 1:
        return SphereDiagram(
            p=1,
            q=1,
            alpha=(),
            beta=(),
            sign={},
            regions=("r0",),
            adjacency={"r0": ()},
            sides={},
            basepoints={"w1": "r0", "z1": "r0"},
            periodic=PeriodicDomainGroup(basis=()),
        )
    if p < 2 or not 0 < q < p:
        raise ValueError("need 0 < q < p (or the degenerate pair p = q = 1)")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    if p % 2:
        raise ValueError("odd p gives a knot; this diagram needs a two-component link")

    geo = _Pillow(p, q)
    adjacency = {r: set() for r in geo.regions}
    for _, _, _, left, right in geo.edges:
        adjacency[left].add(right)
        adjacency[right].add(left)

    pi = {
        r: geo.side_domain("a", 0)[r] - geo.side_domain("b", 0)[r]
        for r in geo.regions
    }
    pi = Domain({r: v for r, v in pi.items() if v})
    basepoints = {
        "w1": geo.branch[(0, 0)],
        "z1": geo.branch[(1, 0)],
        "w2": geo.branch[(0, 1)],
        "z2": geo.branch[(1, 1)],
    }
    for key in ("w1", "w2"):
        if pi.n(basepoints[key]) != 0:
            raise ValueError("the periodic domain must vanish at every w")

    diagram = SphereDiagram(
        p=p,
        q=q,
        alpha=geo.alpha,
        beta=geo.beta,
        sign=dict(geo.sign),
        regions=geo.regions,
        adjacency={r: tuple(sorted(nbs)) for r, nbs in adjacency.items()},
        sides=dict(geo.sides),
        basepoints=basepoints,
        periodic=PeriodicDomainGroup(basis=(pi,)),
        geometry=geo,
    )
    diagram.check()
    return diagram


def admissibility(d: SphereDiagram) -> bool:
    """Every nonzero periodic domain with n_w = 0 must change sign.

    The group here has rank at most one, so checking each basis element
    and its negation covers all nonzero combinations.
    """
    for dom in d.periodic.basis:
        if not dom.mixed_signs():
            return False
    return True


def _relative_gradings(geo: _Pillow, basepoints: dict):
    """Maslov and Alexander gradings of each generator, up to one shift.

    The Maslov difference of a connecting domain D is its index minus
    2(n_w1 + n_w2)(D); the Alexander differences are n_z - n_w per pair.
    Both are checked to be independent of the four choices of connecting
    arcs, and the index congruence is checked over the full domain
    lattice (multiples of the two curve sides and of the whole sphere).
    """
    w1, z1 = basepoints["w1"], basepoints["z1"]
    w2, z2 = basepoints["w2"], basepoints["z2"]
    base = geo.alpha[0]
    rel = {}
    lattice = [geo.side_domain("a", 0), geo.side_domain("a", 1),
               geo.side_domain("b", 0), geo.side_domain("b", 1),
               {r: 1 for r in geo.regions}]
    for g in geo.alpha:
        seen = set()
        for fa, fb in product((True, False), repeat=2):
            m = geo.connect(base, g, fa, fb)
            mas = geo.index(m, base, g) - 2 * (m[w1] + m[w2])
            alex = (m[z1] - m[w1], m[z2] - m[w2])
            seen.add((mas, alex))
            for extra, t in product(lattice, (-1, 1)):
                m2 = {r: m[r] + t * extra[r] for r in geo.regions}
                d_index = geo.index(m2, base, g) - geo.index(m, base, g)
                d_w = 2 * (m2[w1] + m2[w2] - m[w1] - m[w2])
                if d_index != d_w:
                    raise ValueError("the Maslov index congruence fails on the domain lattice")
        if len(seen) != 1:
            raise ValueError("relative gradings depend on the choice of connecting domain")
        mas, alex = seen.pop()
        if mas.denominator != 1:
            raise ValueError("relative Maslov gradings must be integers")
        rel[g] = (-int(mas), (-alex[0], -alex[1]))
    return rel


def complex_from_diagram(d: SphereDiagram) -> FilteredComplex:
    """Filtered GF(2) complex of a two-bridge diagram.

    Arrows count embedded bigons missing all four basepoints, modulo 2.
    The absolute Alexander grading centers the homology rank table so it
    is symmetric under negation.  The absolute Maslov grading follows
    the convention of the alternating-link tables: the homology of a
    two-bridge diagram is thin, supported on the diagonal
    d = h_1 + h_2 + (sigma - 1)/2, and the signature fixes the shift.
    """
    if d.p == 1:
        return FilteredComplex(1, (0,), [("x0", 0, (0,))])
    geo = d.geometry
    if geo is None:
        raise ValueError("this diagram carries no geometry; build it with two_bridge_diagram")

    rel = _relative_gradings(geo, d.basepoints)
    avoid = tuple(d.basepoints.values())
    arrows = []
    for g in geo.alpha:
        for h in geo.alpha:
            if g == h:
                continue
            if geo.bigons(g, h, avoid) % 2:
                if rel[g][0] - rel[h][0] != 1:
                    raise ValueError("a bigon must drop the Maslov grading by exactly 1")
                if rel[g][1] != rel[h][1]:
                    raise ValueError("a bigon missing the basepoints must preserve the filtration")
                arrows.append((g, h))

    provisional = FilteredComplex(
        2, (0, 0),
        [(g, mas, (2 * a1, 2 * a2)) for g, (mas, (a1, a2)) in rel.items()],
        arrows,
    )
    table = assoc_graded_homology(provisional)
    total = sum(table.ranks.values())
    shift = []
    for i in (0, 1):
        center = Fraction(sum(r * h2[i] for (_, h2), r in table.ranks.items()), total)
        if center.denominator != 1:
            raise ValueError("the rank table cannot be centered on the grading lattice")
        shift.append(int(center))
    diagonal = {
        2 * mas - (h2[0] - shift[0]) - (h2[1] - shift[1])
        for (mas, h2) in table.ranks
    }
    if len(diagonal) != 1:
        raise ValueError("the homology of the diagram is not thin; cannot normalize")
    sigma = signature(linkdiag.two_bridge(d.p, d.q))
    dshift, odd = divmod(sigma - 1 - diagonal.pop(), 2)
    if odd:
        raise ValueError("the signature does not match the parity of the diagonal")

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


def oracle_compare(p: int, q: int) -> bool:
    """Bigon counting against the alternating-link computation.

    Builds the rank table twice, once from the diagram and once from the
    Alexander polynomial and signature, and compares them exactly.
    """
    table = assoc_graded_homology(complex_from_diagram(two_bridge_diagram(p, q)))
    if p == 1:
        return table == hfk_alternating_knot(linkdiag.corpus("unknot"))
    return table == hfl_alternating(linkdiag.two_bridge(p, q)).table
