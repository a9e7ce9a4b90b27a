"""Model summands of filtered complexes and the decomposition algorithm.

Five shapes of two-coordinate complex occur as direct summands of the
complexes this package produces: the acyclic square B, the staircase
pairs V and H (acyclic, one arrow per step in a single coordinate
direction plus a linking arrow in the other), and the zigzags X and Y
(homology rank one).  In one coordinate the only shape needed is the
two-step pair E.  Each shape has a standard position; an instance
carries a Maslov offset and a filtration shift placing its cells at
standard-position-plus-shift.

``decompose`` inverts ``build_summand`` + direct sum: given a complex
whose every arrow drops exactly one coordinate by exactly one step, it
returns the multiset of summands.  Such a complex is a module over
GF(2)[x, y]/(x², y²), graded by class (Maslov level and filtration),
where x and y are the parts of the differential that drop the first
and the second coordinate.  The square B is the only shape on which
xy ≠ 0, so the number of squares whose top lies in a class is the rank
of y∘x out of it, and the image is rad² of the class it lands in.
Everything else is read off the tops M/rad and the bottoms rad/rad²:
per Maslov level and anti-diagonal of the filtration lattice they form
a zigzag of spaces and maps, and the intervals of its decomposition
are the strings V, H, X and Y.  A square shows in the zigzag as an
X^1 one grading up at the same shift, which is taken back out.  One
left-to-right sweep per run of vertices reads the intervals off: it
keeps each live interval's vector at the current vertex and, with one
GF(2) elimination per step, ends the intervals whose vectors die or
have no preimage and starts intervals on what is left over.  Each step
is a change of basis of the module because a vector only ever absorbs
the vectors of intervals earlier in one fixed order: those starting at
a top vertex, latest start first, then those starting at a bottom
vertex, earliest start first.  Tops and bottoms alternate along a run,
so the sweep keeps its live intervals in that order by construction:
new intervals that start at a top go first, new ones that start at a
bottom go last.  The result is checked against the summed invariants
of the model summands (cells, total homology, and per coordinate the
e-decomposition of the component homology).  Each shape's homology is
known in closed form, and nothing is cancelled: per coordinate, the
input's bars are read off one boundary-matrix reduction, which also
gives the total homology.

The module maps, the cell counts and both reductions of the check read
the one numbering of the complex, :func:`hfl.filtered._index`, which
its validation has already computed and kept on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .filtered import FilteredComplex, _index, echelon, require_valid
from .laurent import as_ints, fmt_half

__all__ = [
    "Summand",
    "build_summand",
    "build_sum",
    "decompose",
    "e_decomposition",
    "sum_cells",
    "sum_invariants",
]

_KINDS = ("B", "V", "H", "X", "Y", "E")


@dataclass(frozen=True, order=True)
class Summand:
    """One model summand: shape, Maslov offset, size, doubled shift.

    ``lparam`` is the size parameter (arrow count for V/H/E, zigzag
    width for X/Y) and is meaningless for B, where it is pinned to 0.
    A width-zero X is a single cell, the same complex as a width-zero
    Y, and is normalized to the Y spelling so equal summands compare
    equal.  ``d``, ``lparam`` and the shift go through
    :func:`hfl.laurent.as_ints`: a value equal to an int is stored as that
    int, and any other is refused, naming its field.
    """

    kind: str
    d: int
    lparam: int
    shift2: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown summand kind {self.kind!r}")
        (d,) = as_ints((self.d,), "summand d")
        (lparam,) = as_ints((self.lparam,), "summand lparam")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lparam", lparam)
        object.__setattr__(self, "shift2", as_ints(self.shift2, "summand shift2"))
        nv = 1 if self.kind == "E" else 2
        if len(self.shift2) != nv:
            raise ValueError(f"kind {self.kind} needs a {nv}-coordinate shift")
        if self.kind == "B" and self.lparam != 0:
            raise ValueError("B has no size parameter; pass 0")
        if self.kind in ("V", "H", "E") and self.lparam < 1:
            raise ValueError(f"{self.kind} needs lparam >= 1")
        if self.kind in ("X", "Y") and self.lparam < 0:
            raise ValueError("negative lparam")
        if self.kind == "X" and self.lparam == 0:
            object.__setattr__(self, "kind", "Y")

    @classmethod
    def _trusted(cls, kind: str, d: int, lparam: int, shift2: tuple[int, ...]) -> "Summand":
        """A summand from values that already are what the constructor
        keeps, without re-checking them: a known kind, ints, an int tuple
        of the kind's length, sizes in range, and a width-zero X spelled
        Y.  ``decompose`` and ``homology.two_component_cfl`` build their
        lists this way from the tuples they computed."""
        s = cls.__new__(cls)
        s.__dict__.update(kind=kind, d=d, lparam=lparam, shift2=shift2)
        return s

    def __str__(self) -> str:
        shift = ",".join(map(fmt_half, self.shift2))
        size = "" if self.kind == "B" else f"^{self.lparam}"
        return f"{self.kind}{size}({self.d})[{shift}]"


@cache
def _standard_model(kind: str, lam: int):
    """Cells (id, Maslov, doubled level) and arrows of a shape at Maslov
    offset 0 and standard position."""
    cells: list[tuple[str, int, tuple[int, ...]]] = []
    arrows: list[tuple[str, str]] = []
    if kind == "B":
        cells = [
            ("c00", 0, (0, 0)),
            ("c10", 1, (2, 0)),
            ("c01", 1, (0, 2)),
            ("c11", 2, (2, 2)),
        ]
        arrows = [("c11", "c10"), ("c11", "c01"), ("c10", "c00"), ("c01", "c00")]
    elif kind == "V":
        for j in range(lam):
            cells.append((f"t{j}", 0, (-2 * j, 2 * j)))
            cells.append((f"u{j}", -1, (-2 * j - 2, 2 * j)))
            arrows.append((f"t{j}", f"u{j}"))
            if j:
                arrows.append((f"t{j}", f"u{j - 1}"))
    elif kind == "H":
        # V mirrored: the same ids in the same order, coordinates swapped
        v_cells, v_arrows = _standard_model("V", lam)
        return tuple((gid, m, (y, x)) for gid, m, (x, y) in v_cells), v_arrows
    elif kind == "X":
        for i in range(lam + 1):
            cells.append((f"l{i}", 0, (2 * i, 2 * (lam - i))))
        for i in range(1, lam + 1):
            cells.append((f"u{i}", 1, (2 * i, 2 * (lam + 1 - i))))
            arrows.append((f"u{i}", f"l{i - 1}"))
            arrows.append((f"u{i}", f"l{i}"))
    elif kind == "Y":
        for i in range(lam + 1):
            cells.append((f"t{i}", 0, (2 * i, 2 * (lam - i))))
        for i in range(lam):
            cells.append((f"l{i}", -1, (2 * i, 2 * (lam - 1 - i))))
        for i in range(lam + 1):
            if i:
                arrows.append((f"t{i}", f"l{i - 1}"))
            if i < lam:
                arrows.append((f"t{i}", f"l{i}"))
    else:  # E
        cells = [("t", 0, (0,)), ("b", -1, (-2 * lam,))]
        arrows = [("t", "b")]
    return tuple(cells), tuple(arrows)


def _placed(kind: str, d: int, lam: int, shift2: tuple[int, ...]):
    """Cells (id, Maslov, doubled level) and arrows of the summand with
    these fields, a ``Summand`` or not yet: each cell of the shape's cached
    standard model moved by ``d`` and ``shift2``."""
    cells, arrows = _standard_model(kind, lam)
    if len(shift2) == 2:
        x, y = shift2
        return [(gid, m + d, (a + x, b + y)) for gid, m, (a, b) in cells], arrows
    (x,) = shift2
    return [(gid, m + d, (a + x,)) for gid, m, (a,) in cells], arrows


def build_summand(s: Summand) -> FilteredComplex:
    """Realize a summand as a complex, cells at standard position + shift."""
    cells, arrows = _placed(s.kind, s.d, s.lparam, s.shift2)
    return FilteredComplex(len(s.shift2), [x % 2 for x in s.shift2], cells, arrows)


def build_sum(summands) -> FilteredComplex:
    """The direct sum of the summands, with the ids of summand k prefixed
    by ``s{k}.`` as in ``direct_sum``.  All must share one parity.

    Summands are checked when made, so the sum is built without the
    public constructor's checks, apart from the ones a list of summands
    can fail: each summand's coordinate count and parity.  Standard
    positions are even, so a summand's cells all have its shift's parity.
    """
    if not summands:
        raise ValueError("empty direct sum")
    parity = [x % 2 for x in summands[0].shift2]
    maslov: dict[str, int] = {}
    filt: dict[str, tuple[int, ...]] = {}
    arrows = []
    for k, s in enumerate(summands):
        cells, arrs = _placed(s.kind, s.d, s.lparam, s.shift2)
        prefix = f"s{k}."
        if [x % 2 for x in s.shift2] != parity:
            fault = "has a filtration of wrong length" if len(s.shift2) != len(parity) \
                else f"violates parity {tuple(parity)}"
            raise ValueError(f"generator {prefix + cells[0][0]!r} {fault}")
        for gid, m, h2 in cells:
            gid = prefix + gid
            maslov[gid] = m
            filt[gid] = h2
        arrows += [(prefix + a, prefix + b) for a, b in arrs]
    return FilteredComplex._trusted(len(parity), tuple(parity), maslov, filt, frozenset(arrows))


# ----------------------------------------------------------------------
# One-coordinate decomposition (persistence pairing)

def e_decomposition(cx: FilteredComplex):
    """Split a one-coordinate complex into E-pairs and free generators.

    Returns (pairs, frees): ``pairs`` counts triples (lparam, maslov of
    the arrow source, doubled filtration of the source); ``frees``
    counts (maslov, doubled filtration) of the unpaired generators.
    These are the complex's persistence bars, read by ``_bars`` off the
    complex's ``_index``; a pair with lparam 0 joins two generators of
    one filtration level.
    """
    if cx.nvars != 1:
        raise ValueError("e_decomposition expects a one-coordinate complex")
    require_valid(cx)
    return _bars(_index(cx), 0)


def _bars(index, axis: int):
    """Persistence bars of a valid complex filtered by coordinate ``axis``,
    from its ``_index``.

    The standard boundary-matrix reduction: generators ordered by
    (level on ``axis``, Maslov, position), which puts every arrow's
    target before its source, and each boundary column, kept in a list
    by rank in that order, reduced by ``echelon`` against the earlier
    ones.  The order comes from grouping the positions by (level,
    Maslov) and sorting the groups, not the generators.  A boundary
    left with a leading bit pairs its source with that generator.
    Returns (pairs, frees) as ``e_decomposition`` does, with every level
    read on ``axis``; frees are counted in position order.  The counts
    of bars of length greater than zero and of unpaired generators per
    (Maslov, level) are filtered homotopy invariants; the unpaired
    generators per Maslov grading span the total homology.
    """
    gens, arrows = index
    groups: dict[tuple, list[int]] = {}
    for p, (_, d, h2) in enumerate(gens):
        groups.setdefault((h2[axis], d), []).append(p)
    rank = [0] * len(gens)
    order: list[tuple] = []  # (level, Maslov) by rank
    for key in sorted(groups):
        for p in groups[key]:
            rank[p] = len(order)
            order.append(key)
    columns = [0] * len(gens)
    for p, q in arrows:
        columns[rank[p]] |= 1 << rank[q]
    piv: dict[int, int] = {}
    pairs: Counter = Counter()
    paired = [False] * len(gens)
    for i, column in enumerate(columns):
        if column:
            n = len(piv)
            echelon((column,), piv)
            if len(piv) > n:
                bottom = next(reversed(piv))  # leading bit of the reduced column
                level, d = order[i]
                pairs[((level - order[bottom][0]) // 2, d, level)] += 1
                paired[i] = paired[bottom] = True
    frees = Counter((d, h2[axis]) for p, (_, d, h2) in enumerate(gens) if not paired[rank[p]])
    return pairs, frees


# ----------------------------------------------------------------------
# Two-coordinate decomposition

def _image(columns: list[int], v: int) -> int:
    img = 0
    for col in columns:
        if v & 1:
            img ^= col
        v >>= 1
    return img


def _module(index) -> dict[tuple, tuple[list[int], list[int]]]:
    """Per class (Maslov level and filtration), the x- and y-images of
    its generators, in position order, as bitmasks over the generators
    of the target class, from the complex's ``_index``.  The length of a
    class's lists is its generator count.

    Refuses a complex with an arrow that drops neither coordinate alone
    by one step, naming the smallest such arrow.
    """
    gens, arrows = index
    maps: dict[tuple, tuple[list[int], list[int]]] = {}
    where = []  # position -> (images of its class, index in the class, level)
    for _, d, h2 in gens:
        images = maps.get((d, h2))
        if images is None:
            images = maps[(d, h2)] = ([], [])
        where.append((images, len(images[0]), h2))
        images[0].append(0)
        images[1].append(0)
    long_arrows = []
    for p, q in arrows:
        images, i, (xa, ya) = where[p]
        _, j, (xb, yb) = where[q]
        if ya == yb and xa - xb == 2:
            images[0][i] |= 1 << j
        elif xa == xb and ya - yb == 2:
            images[1][i] |= 1 << j
        else:
            long_arrows.append((gens[p][0], gens[q][0], xa - xb, ya - yb))
    if long_arrows:
        a, b, dx, dy = min(long_arrows)
        raise ValueError(
            f"complex is not E₂-collapsed: arrow {a}->{b} moves the filtration "
            f"by ({dx}/2, {dy}/2)"
        )
    return maps


def _rad2(maps: dict) -> dict[tuple, dict[int, int]]:
    """Phase one: per class, an echelon basis of the image of y∘x.

    Only the square B has xy ≠ 0, once from its top to its bottom, so
    the rank of this basis is the number of squares ending in the class.
    """
    rad2 = {}
    for (m, (x, y)), (xs, _) in maps.items():
        if any(xs):
            ys = maps[(m - 1, (x - 2, y))][1]
            basis = echelon(_image(ys, v) for v in xs)
            if basis:
                rad2[(m - 2, (x - 2, y - 2))] = basis
    return rad2


def _string_decomposition(maps: dict, rad2: dict) -> list[tuple]:
    """Phase two: interval decomposition of the zigzag of tops and bottoms,
    as ``_interval_summand`` tuples.

    A vertex is a tuple (position, is_top, images, space, rad²): its
    position along the anti-diagonal, whether it holds the tops of its
    class or the bottoms, the class's x- and y-images from ``_module``,
    a basis of the tops or of rad/rad², and an echelon basis of rad²
    (None for tops).
    """
    paths: dict[tuple, dict[int, tuple]] = {}
    for c, images in maps.items():
        m, (x, y) = c
        # rad² first, so the new pivots span a complement of it in rad
        deep = rad2.get(c, {})
        rad = dict(deep)
        source = maps.get((m + 1, (x + 2, y)))
        if source:
            echelon(source[0], rad)
        source = maps.get((m + 1, (x, y + 2)))
        if source:
            echelon(source[1], rad)
        n = len(images[0])
        if len(rad) < n:
            top = [1 << i for i in range(n) if i not in rad]
            paths.setdefault((m, x + y), {})[x] = (x, True, images, top, None)
        if len(rad) > len(deep):
            bottom = list(rad.values())[len(deep):]
            paths.setdefault((m + 1, x + y + 2), {})[x + 1] = (x + 1, False, images, bottom, deep)

    out: list[tuple] = []
    for (d_top, ssum), verts in paths.items():
        run: list[tuple] = []
        for pos in sorted(verts):
            if run and run[-1][0] != pos - 1:
                out += _sweep(run, d_top, ssum)
                run = []
            run.append(verts[pos])
        out += _sweep(run, d_top, ssum)
    return out


def _sweep(run, d_top, ssum) -> list[tuple]:
    """Intervals of one run of consecutive vertices, read left to right.

    Each top vertex k maps to the bottoms k - 1 and k + 1, modulo rad²
    there.  The sweep keeps the live intervals, each with its vector at
    the current vertex, and at every step ends some and starts others.
    Adding interval j's vector into interval i's is a change of basis of
    the module only when some morphism from i's interval module to j's
    is the identity here; on these zigzags that holds whenever j comes
    before i in the order: intervals starting at a top, latest start
    first, then intervals starting at a bottom, earliest start first.
    ``live`` is kept in that order as intervals are made, so a vector
    only ever absorbs earlier ones.  Vertices alternate top and bottom
    within a run, so the intervals started at vertex k + 1 are the latest
    of their kind: after a bottom they start at a top and go first, after
    a top they start at a bottom and go last, and the survivors keep
    their order between them.
    """
    found = []
    live = [(0, v) for v in run[0][3]]
    for k in range(len(run) - 1):
        _, is_top, images, _, rad2 = run[k]
        _, _, next_images, space, next_rad2 = run[k + 1]
        if is_top:
            # an image in the span of rad² and earlier images ends its
            # interval at k
            ys = images[1]
            piv = dict(next_rad2)
            nxt = []
            for start, v in live:
                n = len(piv)
                echelon((_image(ys, v),), piv)
                if len(piv) > n:
                    nxt.append((start, piv[next(reversed(piv))]))
                else:
                    found.append(_interval_summand(run, start, k, d_top, ssum))
            n = len(piv)
            echelon(space, piv)
            # new intervals start at a bottom: they go last
            nxt += [(k + 1, b) for b in list(piv.values())[n:]]
        else:
            # rows [rad² | 0 | 0], [live vector | live unit | 0] and
            # [left image of t | 0 | t]: a pivot leading in live
            # coordinate j carries interval j into the top at k + 1, one
            # leading in the top coordinates is a kernel vector and
            # starts an interval there
            xs = next_images[0]
            width = len(xs)  # a top is a bitmask over its class
            n = len(live)
            rows = [r << n + width for r in rad2.values()]
            rows += [(v << n | 1 << j) << width for j, (_, v) in enumerate(live)]
            rows += [(_image(xs, t) << n + width) | t for t in space]
            piv = echelon(rows)
            # new intervals start at a top: they go first
            nxt = [(k + 1, row) for lead, row in piv.items() if lead < width]
            for j, (start, _) in enumerate(live):
                row = piv.get(width + j)
                if row is None:
                    found.append(_interval_summand(run, start, k, d_top, ssum))
                else:
                    nxt.append((start, row & ((1 << width) - 1)))
        live = nxt
    found += [_interval_summand(run, start, len(run) - 1, d_top, ssum) for start, _ in live]
    return found


def _interval_summand(run, l, r, d_top, ssum) -> tuple:
    """The summand of the interval from vertex l to vertex r of a run, as
    a plain (kind, d, lparam, shift) tuple, spelled as ``Summand`` spells
    it: a width-zero X is a Y."""
    a, a_top = run[l][:2]
    b, b_top = run[r][:2]
    width = r - l
    if a_top and b_top:
        lam = width // 2
        return ("Y", d_top, lam, (a, ssum - a - 2 * lam))
    if not a_top and not b_top:
        lam = width // 2
        first = a - 1
        return ("X" if lam else "Y", d_top - 1, lam, (first, ssum - 2 - first - 2 * lam))
    lam = (width + 1) // 2
    if a_top:
        return ("H", d_top, lam, (a, ssum - a))
    return ("V", d_top, lam, (b, ssum - b))


def decompose(cx: FilteredComplex) -> list[Summand]:
    """Split a complex into model summands, or refuse.

    The complex must be a legal filtered complex whose every arrow
    drops a single coordinate by a single step; otherwise the second
    page of the spectral sequence still carries a differential and no
    decomposition into the model shapes exists.  The squares are
    counted by the rank of y∘x per class; the other summands are the
    intervals of the zigzag of tops and of rad/rad², less one X^1 per
    square.  By Krull–Schmidt the list does not depend on the basis.
    """
    if cx.nvars != 2:
        raise ValueError("decompose handles two-coordinate complexes")
    require_valid(cx)
    index = _index(cx)
    maps = _module(index)
    rad2 = _rad2(maps)
    # plain (kind, d, lparam, shift) tuples until the list is final: they
    # count, subtract and sort as the Summands they spell
    squares = [("B", m, 0, h2) for (m, h2), basis in rad2.items() for _ in basis]
    # each square also shows in the zigzag, as an X^1 one grading up
    strings = Counter(_string_decomposition(maps, rad2))
    strings.subtract(("X", m + 1, 1, h2) for _, m, _, h2 in squares)
    summands = [Summand._trusted(*t) for t in sorted(squares + list(strings.elements()))]
    _verify_rebuild(index, maps, summands)
    return summands


def sum_cells(summands) -> Counter:
    """Generator counts of ``build_sum(summands)`` by (Maslov, doubled
    level), without building it: each summand placed by ``_placed``."""
    return Counter((m, h2) for s in summands
                   for _, m, h2 in _placed(s.kind, s.d, s.lparam, s.shift2)[0])


def sum_invariants(summands):
    """Total homology and, per coordinate, the ``e_decomposition`` of the
    component homology of ``build_sum(summands)``, without building it.

    Returns (total, ((pairs, frees), (pairs, frees))), coordinate i
    meaning ``component_homology(cx, i)``, which cancels coordinate i
    and keeps the other.  Each shape's homology is fixed in closed form:
    B adds nothing; V^λ adds one E-pair (λ, d, x0) in coordinate 2 and
    H^λ one E-pair (λ, d, y0) in coordinate 1; X^k and Y^k add one
    generator of total homology at grading d, which survives as a free
    generator (d, y0) in coordinate 1 and (d, x0) in coordinate 2, each
    moved by 2k for Y.  All of it adds up over direct sums, since
    cancellation never crosses summands.  A one-coordinate summand (E)
    is refused, naming it.
    """
    total: Counter = Counter()
    per_coordinate = ((Counter(), Counter()), (Counter(), Counter()))
    for s in summands:
        if s.kind == "E":
            raise ValueError(f"sum_invariants takes two-coordinate summands, not {s}")
        d, (x0, y0) = s.d, s.shift2
        if s.kind == "V":
            per_coordinate[1][0][(s.lparam, d, x0)] += 1
        elif s.kind == "H":
            per_coordinate[0][0][(s.lparam, d, y0)] += 1
        elif s.kind in ("X", "Y"):
            k = 2 * s.lparam if s.kind == "Y" else 0
            total[d] += 1
            per_coordinate[0][1][(d, y0 + k)] += 1
            per_coordinate[1][1][(d, x0 + k)] += 1
    return total, per_coordinate


def _verify_rebuild(index, maps: dict, summands) -> None:
    """Check the summands against invariants of the input complex, read
    off its ``_index`` and the ``_module`` maps built from it.

    Generator counts, total homology and, per coordinate, the
    e-decomposition of the component homology are compared with the
    closed forms of the model summands, and nothing is cancelled.  The
    generator counts are the class sizes of ``maps``.  For coordinate i,
    the bars of the complex filtered by the other coordinate are read off
    one reduction of the same index: cancelling the arrows that keep the
    other coordinate is a filtered homotopy equivalence onto
    ``component_homology(cx, i)``, so the bars of positive length and
    the unpaired generators are that complex's e-decomposition.  The
    unpaired generators, counted by Maslov grading, are the total
    homology.  The e-decomposition fixes the component homology's
    counts: every generator is a pair end or a free generator, and a
    pair's bottom sits one grading and 2λ levels below its top.

    The check is blind to how zigzag ends pair up.  Each coordinate sees
    only one end of an X or Y, so two lists of zigzags with the same
    cells and the same ends in each coordinate, matched up differently,
    pass alike: Y^1(-1)[0,0] + Y^2(-1)[1,-2] against
    Y^0(-1)[1,0] + Y^3(-1)[0,-2], for one.
    """
    if sum_cells(summands) != {c: len(xs) for c, (xs, _) in maps.items()}:
        raise AssertionError("decomposition does not match the generator counts")
    total, per_coordinate = sum_invariants(summands)
    bars = [_bars(index, 2 - i) for i in (1, 2)]
    homology: Counter = Counter()
    for (m, _), n in bars[0][1].items():
        homology[m] += n
    if homology != total:
        raise AssertionError("decomposition does not match total homology")
    for i, (pairs, frees), expected in zip((1, 2), bars, per_coordinate):
        if (Counter({key: n for key, n in pairs.items() if key[0]}), frees) != expected:
            raise AssertionError(
                f"decomposition does not match the coordinate-{i} homology"
            )
