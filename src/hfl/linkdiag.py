"""Planar diagram codes for oriented links.

A diagram is a list of crossings X[a,b,c,d]: the four edge labels around
the crossing, starting with the incoming under-strand and continuing
counterclockwise.  Edge labels are positive integers, each used exactly
twice in the whole diagram.  Orientations are recovered by propagating
in/out assignments from the under-strand slots; the crossing sign is +1
exactly when the over-strand runs from the fourth listed edge to the
second.

The zero-crossing unknot is written "U".
"""

import re
from math import gcd

__all__ = [
    "LinkDiagram",
    "LinkingData",
    "SplitLinkError",
    "parse_pd",
    "linking_matrix",
    "classify",
    "mirror",
    "reverse",
    "connected_sum",
    "keep_component",
    "braid_closure",
    "two_bridge",
    "corpus",
    "CORPUS_NAMES",
]

IN, OUT = 0, 1


class SplitLinkError(ValueError):
    """Raised when an operation requires a connected projection."""


class LinkingData:
    """Symmetric linking matrix and its row sums."""

    def __init__(self, lk):
        self.lk = tuple(tuple(row) for row in lk)
        self.total = tuple(sum(row) for row in self.lk)

    def __eq__(self, other):
        return isinstance(other, LinkingData) and self.lk == other.lk

    def __repr__(self):
        return "LinkingData(%r)" % (self.lk,)


class LinkDiagram:
    """An oriented link diagram, traced and canonicalized on construction.

    Attributes after tracing:
      crossings   list of 4-tuples, slot 0 = incoming under-strand
      signs       list of +1/-1, one per crossing
      components  list of edge cycles in traversal order, numbered by
                  smallest edge label, each rotated to start at it
      edge_comp   edge label -> component index
    """

    def __init__(self, crossings):
        self.crossings = [tuple(int(e) for e in x) for x in crossings]
        for x in self.crossings:
            if len(x) != 4:
                raise ValueError("crossing %r does not have four edges" % (x,))
            if any(e < 1 for e in x):
                raise ValueError("edge labels must be positive")
        self._trace()
        if self.is_connected():
            self.faces()  # a non-planar code fails the face count here

    # ------------------------------------------------------------------
    # tracing

    def _trace(self):
        occ = {}
        for ci, x in enumerate(self.crossings):
            for k, e in enumerate(x):
                occ.setdefault(e, []).append((ci, k))
        for e, places in occ.items():
            if len(places) != 2:
                raise ValueError("edge %d used %d times (need exactly 2)" % (e, len(places)))
        self._occ = occ

        if not self.crossings:
            self.signs = []
            self.components = [[]]
            self.edge_comp = {}
            self.n_edges = 0
            return

        # Direction of each (crossing, slot) incidence.  Under slots are
        # forced; over slots follow by propagating two constraints: an
        # edge is out at one end and in at the other, and the two over
        # slots of a crossing carry one in and one out.
        dirs = {}
        stack = []

        def set_dir(ci, k, d):
            key = (ci, k)
            if key in dirs:
                if dirs[key] != d:
                    raise ValueError("inconsistent strand orientations (trace does not close)")
                return
            dirs[key] = d
            stack.append((ci, k, d))

        for ci in range(len(self.crossings)):
            set_dir(ci, 0, IN)
            set_dir(ci, 2, OUT)
        while stack:
            ci, k, d = stack.pop()
            e = self.crossings[ci][k]
            for cj, m in self._occ[e]:
                if (cj, m) != (ci, k):
                    set_dir(cj, m, 1 - d)
            if k in (1, 3):
                set_dir(ci, 4 - k, 1 - d)
        for ci in range(len(self.crossings)):
            for k in (1, 3):
                if (ci, k) not in dirs:
                    raise ValueError(
                        "orientation of an all-over component is not determined; "
                        "give a diagram where every component passes under somewhere"
                    )
        self._dirs = dirs

        # sign +1 exactly when the over-strand enters at slot 3
        self.signs = [1 if dirs[(ci, 3)] == IN else -1 for ci in range(len(self.crossings))]

        # successor along the strand: follow the in-slot to the out-slot
        succ = {}
        for ci, x in enumerate(self.crossings):
            succ[x[0]] = x[2]
            if dirs[(ci, 1)] == IN:
                succ[x[1]] = x[3]
            else:
                succ[x[3]] = x[1]

        comps = []
        seen = set()
        for e in sorted(occ):
            if e in seen:
                continue
            cyc = [e]
            seen.add(e)
            nxt = succ[e]
            while nxt != e:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = succ[nxt]
            comps.append(cyc)
        comps.sort(key=min)
        self.components = comps
        self.edge_comp = {}
        for i, cyc in enumerate(self.components):
            for e in cyc:
                self.edge_comp[e] = i
        self.n_edges = len(occ)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n_components(self):
        return len(self.components)

    def crossing_strands(self, ci):
        """Component indices (under, over) at crossing ci."""
        x = self.crossings[ci]
        return self.edge_comp[x[0]], self.edge_comp[x[1]]

    def in_crossing(self, e):
        """The crossing index where edge e ends."""
        for ci, k in self._occ[e]:
            if self._dirs[(ci, k)] == IN:
                return ci
        raise ValueError("edge %d has no incoming end" % e)

    def writhe(self):
        return sum(self.signs)

    def is_connected(self):
        if len(self.crossings) <= 1:
            return True
        adj = {ci: set() for ci in range(len(self.crossings))}
        for places in self._occ.values():
            (a, _), (b, _) = places
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.crossings)

    def is_alternating(self):
        """Whether over/under strictly alternate along every strand cycle."""
        if not self.crossings:
            return True
        for cyc in self.components:
            passes = []
            for e in cyc:
                for ci, k in self._occ[e]:
                    if self._dirs[(ci, k)] == IN:
                        passes.append(0 if k == 0 else 1)
            if len(passes) % 2:
                return False
            for i in range(len(passes)):
                if passes[i] == passes[(i + 1) % len(passes)]:
                    return False
        return True

    def faces(self):
        """Complementary regions of the projection, as corner lists.

        A corner (ci, k) is the sector of crossing ci between slots k
        and k+1 mod 4.  The face count is checked against Euler's
        formula, which fails loudly if the counterclockwise slot
        convention was violated somewhere.
        """
        if not self.crossings:
            return [[], []]
        other_end = {}
        for places in self._occ.values():
            (a, ka), (b, kb) = places
            other_end[(a, ka)] = (b, kb)
            other_end[(b, kb)] = (a, ka)
        faces = []
        seen = set()
        for ci in range(len(self.crossings)):
            for k in range(4):
                if (ci, k) in seen:
                    continue
                face = []
                cur = (ci, k)
                while cur not in seen:
                    seen.add(cur)
                    face.append(cur)
                    cur = other_end[(cur[0], (cur[1] + 1) % 4)]
                faces.append(face)
        if len(faces) != len(self.crossings) + 2:
            raise ValueError(
                "face count %d != crossings + 2; the counterclockwise slot "
                "convention is violated" % len(faces)
            )
        return faces

    # ------------------------------------------------------------------
    # serialization

    def to_pd_text(self):
        if not self.crossings:
            return "U"
        return "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in self.crossings) + "]"

    def to_json_dict(self):
        return {
            "crossings": [list(x) for x in self.crossings],
            "orientations": [1] * self.n_components,
        }

    @classmethod
    def from_json_dict(cls, data):
        d = cls(data["crossings"])
        for i, o in enumerate(data.get("orientations", [])):
            if o == -1:
                d = reverse(d, i)
        return d

    def __eq__(self, other):
        return isinstance(other, LinkDiagram) and self.crossings == other.crossings

    def __repr__(self):
        return "LinkDiagram(%s)" % self.to_pd_text()


def _relabel_dense(crossings):
    labels = sorted({e for x in crossings for e in x})
    m = {e: i + 1 for i, e in enumerate(labels)}
    return [tuple(m[e] for e in x) for x in crossings]


def _from_positional(crossings):
    """Build a diagram from tuples whose slot 0 need not be the under-in.

    Slots (0,2) must be the under-strand pair and the cyclic order must
    be counterclockwise; the actual flow direction is solved by
    two-coloring and each tuple is then rotated so slot 0 is incoming.
    """
    occ = {}
    for ci, x in enumerate(crossings):
        for k, e in enumerate(x):
            occ.setdefault(e, []).append((ci, k))
    for e, places in occ.items():
        if len(places) != 2:
            raise ValueError("edge %d used %d times" % (e, len(places)))
    dirs = {}
    for e in sorted(occ):
        if (occ[e][0]) in dirs:
            continue
        stack = [(occ[e][0], OUT)]
        while stack:
            (ci, k), d = stack.pop()
            if (ci, k) in dirs:
                if dirs[(ci, k)] != d:
                    raise ValueError("inconsistent positional crossings")
                continue
            dirs[(ci, k)] = d
            ee = crossings[ci][k]
            for cj, m in occ[ee]:
                if (cj, m) != (ci, k):
                    stack.append(((cj, m), 1 - d))
            partner = (k + 2) % 4
            stack.append(((ci, partner), 1 - d))
    out = []
    for ci, x in enumerate(crossings):
        if dirs[(ci, 0)] == IN:
            out.append(x)
        else:
            out.append((x[2], x[3], x[0], x[1]))
    return LinkDiagram(_relabel_dense(out))


# ----------------------------------------------------------------------
# operations


def parse_pd(text):
    """Parse "PD[X[a,b,c,d],...]" or the unknot literal "U"."""
    s = re.sub(r"\s+", "", text)
    if s == "U":
        return LinkDiagram([])
    m = re.fullmatch(r"PD\[(.*)\]", s)
    if not m:
        raise ValueError("not a PD code: %r" % text)
    body = m.group(1)
    crossings = []
    for xm in re.finditer(r"X\[([^\]]*)\]", body):
        parts = xm.group(1).split(",")
        if len(parts) != 4:
            raise ValueError("crossing X[%s] does not have four edges" % xm.group(1))
        crossings.append(tuple(int(p) for p in parts))
    leftover = re.sub(r"X\[[^\]]*\]", "", body).replace(",", "")
    if leftover or not crossings:
        raise ValueError("malformed PD body: %r" % body)
    return LinkDiagram(crossings)


def linking_matrix(d):
    l = d.n_components
    lk2 = [[0] * l for _ in range(l)]
    for ci in range(len(d.crossings)):
        i, j = d.crossing_strands(ci)
        if i != j:
            lk2[i][j] += d.signs[ci]
            lk2[j][i] += d.signs[ci]
    for i in range(l):
        for j in range(l):
            if lk2[i][j] % 2:
                raise ValueError("odd crossing count between components %d,%d" % (i, j))
    return LinkingData([[v // 2 for v in row] for row in lk2])


def classify(d):
    return {
        "component_count": d.n_components,
        "connected_projection": d.is_connected(),
        "alternating_projection": d.is_alternating(),
        "writhe": d.writhe(),
    }


def mirror(d):
    """Swap every crossing, by reflecting the projection plane."""
    return LinkDiagram([(a, b_, c, d_) for (a, d_, c, b_) in d.crossings])


def reverse(d, i):
    """Reverse the orientation of component i."""
    if not 0 <= i < d.n_components:
        raise ValueError("no component %d" % i)
    if not d.crossings:
        return d
    comp_edges = set(d.components[i])
    out = []
    for x in d.crossings:
        if x[0] in comp_edges:
            out.append((x[2], x[3], x[0], x[1]))
        else:
            out.append(x)
    return LinkDiagram(out)


def connected_sum(d1, d2, c1=0, c2=0):
    """Splice component c1 of d1 to component c2 of d2.

    The join respects orientations and cuts each component at its
    smallest edge.  d2's edges are relabeled above d1's, so d1's
    components keep their positions in the result, the merged component
    sits at index c1, and d2's remaining components follow in order.
    """
    if not 0 <= c1 < d1.n_components:
        raise ValueError("no component %d in first diagram" % c1)
    if not 0 <= c2 < d2.n_components:
        raise ValueError("no component %d in second diagram" % c2)
    if not d1.crossings:
        return d2
    if not d2.crossings:
        return d1
    base = max(e for x in d1.crossings for e in x)

    def out_type(d, e):
        for ci, k in d._occ[e]:
            if d._dirs[(ci, k)] == OUT:
                return "U" if k == 2 else "O"
        raise ValueError("edge %d has no outgoing end" % e)

    # cut both components at edges leaving the same pass type, so that
    # over/under alternation survives the join when both factors alternate
    e1 = min(d1.components[c1])
    t1 = out_type(d1, e1)
    e2 = next(
        (e for e in sorted(d2.components[c2]) if out_type(d2, e) == t1),
        min(d2.components[c2]),
    ) + base
    xs1 = [list(x) for x in d1.crossings]
    xs2 = [[e + base for e in x] for x in d2.crossings]
    # cross-join: each cut edge keeps its outgoing end and inherits the
    # other diagram's label at its incoming end
    for ci, k in d1._occ[e1]:
        if d1._dirs[(ci, k)] == IN:
            xs1[ci][k] = e2
    for ci, k in d2._occ[e2 - base]:
        if d2._dirs[(ci, k)] == IN:
            xs2[ci][k] = e1
    return LinkDiagram(_relabel_dense([tuple(x) for x in xs1 + xs2]))


def keep_component(d, i):
    """The knot diagram of component i alone, other components deleted.

    Crossings with another component are removed and the strand of
    component i is spliced straight through them.
    """
    if not 0 <= i < d.n_components:
        raise ValueError("no component %d" % i)
    if not d.crossings:
        return d

    def kept(ci):
        u, o = d.crossing_strands(ci)
        return u == i and o == i

    cyc = d.components[i]
    n = len(cyc)
    # runs of edges merge into one; they break exactly at kept crossings
    breaks = [idx for idx in range(n) if kept(d.in_crossing(cyc[idx]))]
    if not breaks:
        return LinkDiagram([])  # no self-crossings: an unknot
    label_of = {}
    for j, b in enumerate(breaks):
        idx = (breaks[j - 1] + 1) % n
        lbl = cyc[idx]
        while True:
            label_of[cyc[idx]] = lbl
            if idx == b:
                break
            idx = (idx + 1) % n
    out = []
    for ci, x in enumerate(d.crossings):
        if kept(ci):
            out.append(tuple(label_of[e] for e in x))
    return LinkDiagram(_relabel_dense(out))


# ----------------------------------------------------------------------
# constructions


def braid_closure(word, n_strands):
    """Closure of a braid word; +i is strand i passing over strand i+1.

    Strands are oriented upward, so positive letters give positive
    crossings.
    """
    cur = list(range(n_strands + 1))  # cur[k] = edge at position k
    counter = n_strands
    crossings = []
    for letter in word:
        i = abs(letter)
        if not 1 <= i < n_strands:
            raise ValueError("bad letter %d for %d strands" % (letter, n_strands))
        u, v = cur[i], cur[i + 1]
        x, y = counter + 1, counter + 2
        counter += 2
        if letter > 0:
            crossings.append((v, y, x, u))
        else:
            crossings.append((u, v, y, x))
        cur[i], cur[i + 1] = x, y
    sub = {}
    for k in range(1, n_strands + 1):
        if cur[k] == k:
            raise ValueError("strand %d is never crossed; split closure" % k)
        sub[cur[k]] = k
    closed = [tuple(sub.get(e, e) for e in x) for x in crossings]
    return LinkDiagram(_relabel_dense(closed))


def _plat_4(blocks):
    """Plat closure of a 4-strand word, given as [(position, over, count), ...].

    Each block stacks `count` crossings on strand positions (i, i+1);
    `over` in {"L", "R"} says which incoming strand stays on top.  Caps
    join positions (1,2) and (3,4) at top and bottom.
    """
    cur = {1: 1, 2: 1, 3: 2, 4: 2}  # top cap arcs
    counter = 2
    crossings = []
    for i, over, count in blocks:
        for _ in range(count):
            u, v = cur[i], cur[i + 1]
            x, y = counter + 1, counter + 2
            counter += 2
            if over == "R":
                crossings.append((u, x, y, v))
            else:
                crossings.append((v, u, x, y))
            cur[i], cur[i + 1] = x, y
    for a, b in ((1, 2), (3, 4)):
        if cur[a] == cur[b]:
            raise ValueError("split circle in plat closure")
        crossings = [tuple(cur[a] if e == cur[b] else e for e in x) for x in crossings]
    return _from_positional(crossings)


def _continued_fraction(p, q):
    """Positive continued fraction of p/q with an odd number of digits.

    Odd length is what makes the 4-plat closure below cap off into
    b(p,q) rather than a different pairing of the strand ends.
    """
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    if len(out) % 2 == 0:
        if out[-1] > 1:
            out[-1] -= 1
            out.append(1)
        else:
            out.pop()
            out[-1] += 1
    return out


def two_bridge(p, q):
    """The two-bridge link b(p,q) as an alternating 4-plat diagram.

    p odd gives a knot, p even a two-component link; needs 0 < q < p
    and gcd(p,q) = 1.  Handedness and orientations are normalized so
    that two_bridge(2,1) is the positive Hopf link.
    """
    if p < 2 or not 0 < q < p or gcd(p, q) != 1:
        raise ValueError("need 0 < q < p with gcd(p,q)=1 and p >= 2")
    digits = _continued_fraction(p, q)
    blocks = []
    for t, a in enumerate(digits):
        if t % 2 == 0:
            blocks.append((2, "L", a))
        else:
            blocks.append((1, "R", a))
    d = mirror(_plat_4(blocks))
    if d.n_components == 2:
        total = linking_matrix(d).total[0]
        if total < 0:
            d = reverse(d, 1)
    return d


def _axis_link():
    """A closed positive 2-braid trefoil together with its braid axis.

    Seven crossings; the axis passes under both strands on its upper
    arc and over both on its lower arc, so it bounds a disk pierced
    once by each strand and links the trefoil twice.  Edges are chosen
    so the axis is component 0 and the trefoil component 1.
    """
    xs = [
        (6, 8, 7, 5), (8, 10, 9, 7), (10, 12, 11, 9),  # braid part
        (11, 2, 13, 1),    # lower-left: axis over left strand
        (12, 3, 14, 2),    # lower-right: axis over right strand
        (3, 6, 4, 14),     # upper-right: right strand over axis
        (4, 5, 1, 13),     # upper-left: left strand over axis
    ]
    return LinkDiagram(xs)


def _clasp_link():
    """A closed negative 2-braid trefoil with an unknot woven through it.

    Seven crossings and linking number zero: on each of its two arcs
    across the braid the circle goes over one strand and under the
    other, threading the left strand one way and the right strand the
    other, so it cannot be pulled past the braid crossings on either
    side.  The trefoil (left-handed here) is component 0, matching the
    coordinate order used by the two-component chain complex fixture.
    """
    xs = [
        (2, 1, 3, 4), (4, 3, 5, 6), (6, 5, 7, 8),  # braid part
        # the circle's two transits across the braid; the strand it
        # passes over swaps between the transits
        (7, 9, 13, 10), (10, 14, 11, 8),
        (14, 12, 2, 11), (12, 13, 9, 1),
    ]
    return LinkDiagram(xs)


_CORPUS_RE = re.compile(r"^([A-Za-z0-8_]+?)(?:\((\d+)(?:,(\d+))?\))?$")


def corpus(name):
    """Fixed named diagrams used throughout the tests and the CLI."""
    m = _CORPUS_RE.match(name.strip())
    if not m:
        raise ValueError("unknown corpus name %r" % name)
    base, a1, a2 = m.group(1), m.group(2), m.group(3)
    if base == "unknot" and a1 is None:
        return LinkDiagram([])
    if base == "hopf_plus" and a1 is None:
        return braid_closure([1, 1], 2)
    if base == "hopf_minus" and a1 is None:
        return braid_closure([-1, -1], 2)
    if base == "trefoil_right" and a1 is None:
        return braid_closure([1, 1, 1], 2)
    if base == "trefoil_left" and a1 is None:
        return braid_closure([-1, -1, -1], 2)
    if base == "figure8" and a1 is None:
        return braid_closure([1, -2, 1, -2], 3)
    if base == "L7n1" and a1 is None:
        return _axis_link()
    if base == "L7n2" and a1 is None:
        return _clasp_link()
    if base == "torus_2_2n" and a1 is not None and a2 is None:
        n = int(a1)
        if n < 1:
            raise ValueError("torus_2_2n needs n >= 1")
        return braid_closure([1] * (2 * n), 2)
    if base == "two_bridge" and a1 is not None and a2 is not None:
        return two_bridge(int(a1), int(a2))
    raise ValueError("unknown corpus name %r" % name)


CORPUS_NAMES = [
    "unknot",
    "hopf_plus",
    "hopf_minus",
    "trefoil_right",
    "trefoil_left",
    "figure8",
    "torus_2_2n(2)",
    "torus_2_2n(3)",
    "torus_2_2n(4)",
    "two_bridge(8,3)",
    "L7n1",
    "L7n2",
]
