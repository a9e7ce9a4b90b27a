"""Planar diagram codes for oriented links.

A diagram is a list of crossings X[a,b,c,d]: the four edge labels around
the crossing, starting with the incoming under-strand and continuing
counterclockwise.  Edge labels are positive integers, each used exactly
twice in the whole diagram.  The tracer numbers the places p = 4 *
crossing + slot and pairs the two places of each edge; a strand is then
walked from an incoming place p through p ^ 2, where it leaves the
crossing, to the partner of that place, where it comes in again.  One
walk per strand, each started at an unreached slot 0, orients the
diagram; a strand that comes in at a slot 2 is refused, and so is a
component no walk reaches, one that only passes over.  The crossing
sign is +1 exactly when the over-strand runs from the fourth listed
edge to the second.

The zero-crossing unknot is written "U".
"""

import re
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .laurent import as_ints

__all__ = [
    "LinkDiagram",
    "LinkingData",
    "SplitLinkError",
    "parse_pd",
    "linking_matrix",
    "mirror",
    "reverse",
    "connected_sum",
    "keep_component",
    "braid_closure",
    "two_bridge",
    "corpus",
    "CORPUS_NAMES",
]

class SplitLinkError(ValueError):
    """Raised when an operation requires a connected projection."""


@dataclass(frozen=True)
class LinkingData:
    """Symmetric linking matrix and its row sums."""

    lk: tuple
    total: tuple


class LinkDiagram:
    """An oriented link diagram, traced and canonicalized on construction.

    ``crossings`` lists four edge labels per crossing.  The labels go
    through :func:`hfl.laurent.as_ints`: a label equal to an int is
    stored as that int, and any other is refused, naming its crossing.

    Attributes after tracing:
      crossings   list of 4-tuples, slot 0 = incoming under-strand
      signs       list of +1/-1, one per crossing
      components  list of edge cycles in traversal order, numbered by
                  smallest edge label, each rotated to start at it
      edge_comp   edge label -> component index
      connected   whether the projection is connected
      faces       complementary regions of a connected projection as
                  corner lists, None for a split one; a corner (ci, k)
                  is the sector of crossing ci between slots k and
                  k+1 mod 4
    """

    def __init__(self, crossings):
        self.crossings = xs = []
        for given in crossings:
            x = as_ints(given, "crossing %r edge label", given)
            if len(x) != 4:
                raise ValueError("crossing %r does not have four edges" % (x,))
            if min(x) < 1:
                raise ValueError("edge labels must be positive")
            xs.append(x)
        flat = [e for x in xs for e in x]
        self._other = other = _partners(flat)[0]

        # one walk per strand, from its first slot 0, marks every place
        # where an edge comes in; no strand may come in at a slot 2, and
        # every place is reached when half of them are marked
        came_in = bytearray(len(flat))
        strands = []
        for s in range(0, len(flat), 4):
            if not came_in[s]:
                strands.append(_strand(other, came_in, s))
        if any(came_in[2::4]):
            raise ValueError("inconsistent strand orientations (trace does not close)")
        if 2 * came_in.count(1) != len(flat):
            raise ValueError(
                "orientation of an all-over component is not determined; "
                "give a diagram where every component passes under somewhere"
            )
        # the place where each edge comes in
        self._head = {flat[p]: p for ins in strands for p in ins}
        # sign +1 exactly when the over-strand enters at slot 3
        self.signs = [1 if c else -1 for c in came_in[3::4]]

        # each cycle rotated to start at its smallest edge, and the cycles
        # numbered in the order of those edges
        cycles = []
        for ins in strands:
            cyc = [flat[p] for p in ins]
            k = cyc.index(min(cyc))
            cycles.append(cyc[k:] + cyc[:k])
        self.components = sorted(cycles) or [[]]
        self.edge_comp = {e: i for i, cyc in enumerate(self.components) for e in cyc}

        pieces = _pieces(xs, self.edge_comp, len(self.components))
        self.connected = pieces <= 1
        # a non-planar code fails the face count here, split or not
        faces = _faces(other, pieces)
        self.faces = faces if self.connected else None

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n_components(self):
        return len(self.components)

    def crossing_strands(self, ci):
        """Component indices (under, over) at crossing ci."""
        x = self.crossings[ci]
        return self.edge_comp[x[0]], self.edge_comp[x[1]]

    def is_alternating(self):
        """Whether over/under strictly alternate along every strand cycle."""
        for cyc in self.components:
            passes = [self._head[e] & 3 == 0 for e in cyc]
            for i in range(len(passes)):
                if passes[i] == passes[(i + 1) % len(passes)]:
                    return False
        return True

    # ------------------------------------------------------------------
    # serialization

    def to_pd_text(self):
        if not self.crossings:
            return "U"
        return "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in self.crossings) + "]"

    def __eq__(self, other):
        return isinstance(other, LinkDiagram) and self.crossings == other.crossings

    def __repr__(self):
        return "LinkDiagram(%s)" % self.to_pd_text()


# ----------------------------------------------------------------------
# tracing


def _partners(flat):
    """Pair the places of each edge; ``flat[p]`` is the label at place p.

    Returns ``other``, where ``other[p]`` is the other place of the edge
    at place p, and the first place of each edge in label order.  A label
    not used exactly twice is refused, the first such in place order.
    """
    labels = sorted(flat)
    if labels[::2] != labels[1::2] or 2 * len(set(labels)) != len(flat):
        for e, n in Counter(flat).items():
            if n != 2:
                raise ValueError("edge %d used %d times (need exactly 2)" % (e, n))
    # a stable sort lists the two places of each edge together, in order
    order = sorted(range(len(flat)), key=flat.__getitem__)
    other = [0] * len(flat)
    for p, q in zip(order[::2], order[1::2]):
        other[p] = q
        other[q] = p
    return other, order[::2]


def _strand(other, came_in, s):
    """The places where the strand through place s comes in, from s on.

    The strand comes in at s, leaves the crossing at s ^ 2 and comes in
    again at the other place of that edge.  Each place walked is marked
    in ``came_in``; the strand must be unmarked.
    """
    ins = []
    p = s
    while not came_in[p]:
        came_in[p] = 1
        ins.append(p)
        p = other[p ^ 2]
    return ins


def _pieces(crossings, edge_comp, n_components):
    """Number of connected pieces of the projection: its strands, each
    through at least one crossing, joined where two of them cross."""
    piece = list(range(n_components))
    for x in crossings:
        a, b = piece[edge_comp[x[0]]], piece[edge_comp[x[1]]]
        if a != b:
            piece = [a if v == b else v for v in piece]
    return len(set(piece))


def _faces(other, pieces):
    """Complementary regions of each piece of the projection, as corner lists.

    A piece with n_i crossings is planar exactly when its corners trace
    n_i + 2 faces (Euler's formula on the sphere; a piece of genus g
    traces 2g fewer), so the whole projection must trace crossings +
    2 * pieces.  The count fails loudly if the counterclockwise slot
    convention was violated somewhere, in a split projection too.  The
    corner at place p, the sector between slots k and k + 1 mod 4 of
    crossing ci, is listed as (ci, k).
    """
    if not other:
        return [[], []]
    # the face goes on across the edge at the next slot of the crossing
    turn = other[1:] + other[:1]
    turn[3::4] = other[::4]
    faces = []
    seen = bytearray(len(other))
    for p in range(len(other)):
        if seen[p]:
            continue
        face = []
        while not seen[p]:
            seen[p] = 1
            face.append((p >> 2, p & 3))
            p = turn[p]
        faces.append(face)
    if len(faces) != len(other) // 4 + 2 * pieces:
        raise ValueError(
            "face count %d != crossings + 2 per connected piece; the "
            "counterclockwise slot convention is violated" % len(faces)
        )
    return faces


def _relabel_dense(crossings):
    labels = sorted({e for x in crossings for e in x})
    m = {e: i + 1 for i, e in enumerate(labels)}
    return [(m[a], m[b], m[c], m[d]) for a, b, c, d in crossings]


def _positional(crossings):
    """Orient tuples whose slot 0 need not be the under-in; relabel densely.

    Slots (0,2) must be the under-strand pair and the cyclic order must
    be counterclockwise.  The strand through the smallest edge is started
    out of that edge's first place, each other strand into the first
    place of its own smallest edge, and each tuple is then turned by two
    slots where that makes slot 0 incoming.
    """
    other, firsts = _partners([e for x in crossings for e in x])
    came_in = bytearray(len(other))
    for p in firsts:
        if not came_in[p] and not came_in[p ^ 2]:
            # the strand leaves at p exactly when it comes in at p ^ 2
            _strand(other, came_in, p if any(came_in) else p ^ 2)
    out = [x if came_in[4 * ci] else (x[2], x[3], x[0], x[1])
           for ci, x in enumerate(crossings)]
    return _relabel_dense(out)


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
        labels = [int(p) if re.fullmatch(r"[+-]?\d+", p) else p for p in parts]
        crossings.append(as_ints(labels, "crossing X[%s] edge label", xm.group(1)))
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
    # two closed curves in the plane cross an even number of times, and
    # the constructor refuses a projection that is not planar
    lk = tuple(tuple(v // 2 for v in row) for row in lk2)
    return LinkingData(lk, tuple(map(sum, lk)))


def mirror(d):
    """Swap every crossing, by reflecting the projection plane."""
    return LinkDiagram([(a, b_, c, d_) for (a, d_, c, b_) in d.crossings])


def reverse(d, i):
    """Reverse the orientation of component i."""
    (i,) = as_ints((i,), "component index")
    if not 0 <= i < d.n_components:
        raise ValueError("no component %d" % i)
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
    c1, c2 = as_ints((c1, c2), "component index")
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
        tail = d._other[d._head[e]]
        return "U" if tail & 3 == 2 else "O"

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
    p = d1._head[e1]
    xs1[p >> 2][p & 3] = e2
    p = d2._head[e2 - base]
    xs2[p >> 2][p & 3] = e1
    return LinkDiagram(_relabel_dense([tuple(x) for x in xs1 + xs2]))


def keep_component(d, i):
    """The knot diagram of component i alone, other components deleted.

    Crossings with another component are removed and the strand of
    component i is spliced straight through them.
    """
    (i,) = as_ints((i,), "component index")
    if not 0 <= i < d.n_components:
        raise ValueError("no component %d" % i)

    kept = [d.edge_comp[x[0]] == i == d.edge_comp[x[1]] for x in d.crossings]
    cyc = d.components[i]
    n = len(cyc)
    # runs of edges merge into one; they break exactly at kept crossings
    breaks = [idx for idx, e in enumerate(cyc) if kept[d._head[e] >> 2]]
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
    out = [tuple(label_of[e] for e in x) for x, k in zip(d.crossings, kept) if k]
    return LinkDiagram(_relabel_dense(out))


# ----------------------------------------------------------------------
# constructions


def braid_closure(word, n_strands):
    """Closure of a braid word; +i is strand i passing over strand i+1.

    Strands are oriented upward, so positive letters give positive
    crossings.
    """
    word = as_ints(word, "braid letter")
    (n_strands,) = as_ints((n_strands,), "strand count")
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
    join positions (1,2) and (3,4) at top and bottom.  Returns the
    oriented, densely relabelled crossing tuples of ``_positional``.
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
    # ``two_bridge``'s first block crosses positions 2 and 3, so the four
    # end arcs are distinct: each cap joins two different arcs, no circle
    # closes up on its own, and one substitution makes both caps
    cap = {cur[2]: cur[1], cur[4]: cur[3]}
    return _positional([tuple(map(cap.get, x, x)) for x in crossings])


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
        # for coprime 0 < q < p the last quotient is at least 2
        out[-1] -= 1
        out.append(1)
    return out


def two_bridge(p, q):
    """The two-bridge link b(p,q) as an alternating 4-plat diagram.

    p odd gives a knot, p even a two-component link; needs 0 < q < p
    and gcd(p,q) = 1.  Handedness is normalized so that two_bridge(2,1)
    is the positive Hopf link.  For even p the link is Schubert's
    oriented S(p,q), the one ``heegaard.two_bridge_diagram(p, q)``
    realises: the plat's second strand is started into its smallest
    edge, and the linking number is the sum of (-1)^floor(iq/p) over the
    odd i < p.
    """
    p, q = as_ints((p, q), "two-bridge parameter")
    if p < 2 or not 0 < q < p or gcd(p, q) != 1:
        raise ValueError("need 0 < q < p with gcd(p,q)=1 and p >= 2")
    digits = _continued_fraction(p, q)
    blocks = []
    for t, a in enumerate(digits):
        if t % 2 == 0:
            blocks.append((2, "L", a))
        else:
            blocks.append((1, "R", a))
    # the mirror, as in ``mirror``, applied to the tuples before tracing
    return LinkDiagram([(a, b_, c, d_) for (a, d_, c, b_) in _plat_4(blocks)])


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
