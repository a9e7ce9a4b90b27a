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
vertex, earliest start first.  The result is checked against the
summed invariants of the model summands (cells, total homology, and
per coordinate the e-decomposition of the component homology).  Each
shape's homology is known in closed form, so only the input complex is
cancelled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .filtered import (
    FilteredComplex,
    component_homology,
    direct_sum,
    echelon,
    require_valid,
    total_homology,
)

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
    equal.
    """

    kind: str
    d: int
    lparam: int
    shift2: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown summand kind {self.kind!r}")
        object.__setattr__(self, "shift2", tuple(int(x) for x in self.shift2))
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

    def __str__(self) -> str:
        shift = ",".join(str(x // 2) if x % 2 == 0 else f"{x}/2" for x in self.shift2)
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
        for i in range(lam):
            cells.append((f"t{i}", 0, (2 * i, -2 * i)))
            cells.append((f"u{i}", -1, (2 * i, -2 * i - 2)))
            arrows.append((f"t{i}", f"u{i}"))
            if i:
                arrows.append((f"t{i}", f"u{i - 1}"))
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


def build_summand(s: Summand) -> FilteredComplex:
    """Realize a summand as a complex, cells at standard position + shift."""
    cells, arrows = _standard_model(s.kind, s.lparam)
    parity = tuple(x % 2 for x in s.shift2)
    gens = [
        (gid, dd + s.d, tuple(a + b for a, b in zip(h2, s.shift2))) for gid, dd, h2 in cells
    ]
    return FilteredComplex(len(s.shift2), parity, gens, arrows)


def build_sum(summands) -> FilteredComplex:
    return direct_sum([build_summand(s) for s in summands])


# ----------------------------------------------------------------------
# One-coordinate decomposition (persistence pairing)

def e_decomposition(cx: FilteredComplex):
    """Split a one-coordinate complex into E-pairs and free generators.

    Returns (pairs, frees): ``pairs`` counts triples (lparam, maslov of
    the arrow source, doubled filtration of the source); ``frees``
    counts (maslov, doubled filtration) of the unpaired generators.
    The pairing is the standard boundary-matrix reduction over the
    filtration order, whose output multiset is basis-independent.
    """
    if cx.nvars != 1:
        raise ValueError("e_decomposition expects a one-coordinate complex")
    require_valid(cx)
    order = sorted(cx.gen_ids, key=lambda g: (cx.filt2(g)[0], g))
    index = {g: i for i, g in enumerate(order)}
    out: dict[str, set[str]] = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        out[a].add(b)
    piv: dict[int, int] = {}
    pairs: Counter = Counter()
    paired: set[str] = set()
    for g in order:
        rank = len(piv)
        echelon([sum(1 << index[t] for t in out[g])], piv)
        if len(piv) > rank:
            bottom = order[next(reversed(piv))]  # leading bit of g's reduced column
            lam = (cx.filt2(g)[0] - cx.filt2(bottom)[0]) // 2
            pairs[(lam, cx.maslov(g), cx.filt2(g)[0])] += 1
            paired.add(g)
            paired.add(bottom)
    frees: Counter = Counter()
    for g in cx.gen_ids:
        if g not in paired:
            frees[(cx.maslov(g), cx.filt2(g)[0])] += 1
    return pairs, frees


# ----------------------------------------------------------------------
# Two-coordinate decomposition

def _target(c: tuple, axis: int) -> tuple:
    """The class that x (axis 0) or y (axis 1) maps class ``c`` into."""
    m, (a, b) = c
    return (m - 1, (a - 2, b) if axis == 0 else (a, b - 2))


def _image(columns: list[int], v: int) -> int:
    img = 0
    for col in columns:
        if v & 1:
            img ^= col
        v >>= 1
    return img


def _module(cx: FilteredComplex) -> dict[tuple, tuple[list[int], list[int]]]:
    """Per class (Maslov level and filtration), the x- and y-images of
    its ids, in sorted order, as bitmasks over the ids of the target."""
    classes: dict[tuple, list[str]] = {}
    for g in sorted(cx.gen_ids):
        classes.setdefault((cx.maslov(g), cx.filt2(g)), []).append(g)
    local = {g: i for ids in classes.values() for i, g in enumerate(ids)}
    maps = {c: ([0] * len(ids), [0] * len(ids)) for c, ids in classes.items()}
    for a, b in cx.arrows:
        axis = 0 if cx.filt2(a)[0] - cx.filt2(b)[0] == 2 else 1
        maps[(cx.maslov(a), cx.filt2(a))][axis][local[a]] |= 1 << local[b]
    return maps


def _rad2(maps: dict) -> dict[tuple, dict[int, int]]:
    """Phase one: per class, an echelon basis of the image of y∘x.

    Only the square B has xy ≠ 0, once from its top to its bottom, so
    the rank of this basis is the number of squares ending in the class.
    """
    rad2 = {}
    for c, (xs, _) in maps.items():
        if any(xs):
            ys = maps[_target(c, 0)][1]
            basis = echelon(_image(ys, v) for v in xs)
            if basis:
                rad2[_target(_target(c, 0), 1)] = basis
    return rad2


@dataclass
class _Vertex:
    pos: int
    is_top: bool
    cls: tuple
    space: list[int]
    rad2: dict[int, int]


def _string_decomposition(maps: dict, rad2: dict) -> list[Summand]:
    """Phase two: interval decomposition of the zigzag of tops and bottoms."""
    incoming: dict[tuple, list[int]] = {c: [] for c in maps}
    for c, axes in maps.items():
        for axis, columns in enumerate(axes):
            if any(columns):
                incoming[_target(c, axis)] += columns

    paths: dict[tuple, dict[int, _Vertex]] = {}
    for c, (xs, _) in maps.items():
        (m, h2) = c
        # rad² first, so the new pivots span a complement of it in rad
        deep = rad2.get(c, {})
        rad = echelon(incoming[c], dict(deep))
        top = [1 << i for i in range(len(xs)) if i not in rad]
        bottom = list(rad.values())[len(deep):]
        if top:
            key, pos = (m, h2[0] + h2[1]), h2[0]
            paths.setdefault(key, {})[pos] = _Vertex(pos, True, c, top, {})
        if bottom:
            key, pos = (m + 1, h2[0] + h2[1] + 2), h2[0] + 1
            paths.setdefault(key, {})[pos] = _Vertex(pos, False, c, bottom, deep)

    out: list[Summand] = []
    for (d_top, ssum), verts in paths.items():
        positions = sorted(verts)
        runs: list[list[_Vertex]] = []
        for p in positions:
            if runs and runs[-1][-1].pos == p - 1:
                runs[-1].append(verts[p])
            else:
                runs.append([verts[p]])
        for run in runs:
            out.extend(_sweep(run, d_top, ssum, maps))
    return out


def _sweep(run, d_top, ssum, maps) -> list[Summand]:
    """Intervals of one run of consecutive vertices, read left to right.

    Each top vertex k maps to the bottoms k - 1 and k + 1, modulo rad²
    there.  The sweep keeps the live intervals, each with its vector at
    the current vertex, and at every step ends some and starts others.
    Adding interval j's vector into interval i's is a change of basis of
    the module only when some morphism from i's interval module to j's
    is the identity here; on these zigzags that holds whenever j comes
    before i in the order: intervals starting at a top, latest start
    first, then intervals starting at a bottom, earliest start first.
    So the live intervals are sorted into that order before each step,
    and a vector only ever absorbs earlier ones.
    """
    found = []
    live = [(0, v) for v in run[0].space]
    for k in range(len(run) - 1):
        live.sort(key=lambda iv: (0, -iv[0]) if run[iv[0]].is_top else (1, iv[0]))
        nxt = []
        if run[k].is_top:
            # an image in the span of rad² and earlier images ends its
            # interval at k
            ys = maps[run[k].cls][1]
            piv = dict(run[k + 1].rad2)
            for start, v in live:
                rank = len(piv)
                echelon([_image(ys, v)], piv)
                if len(piv) > rank:
                    nxt.append((start, piv[next(reversed(piv))]))
                else:
                    found.append(_interval_summand(run, start, k, d_top, ssum))
            rank = len(piv)
            echelon(run[k + 1].space, piv)
            nxt += [(k + 1, b) for b in list(piv.values())[rank:]]
        else:
            # rows [rad² | 0 | 0], [live vector | live unit | 0] and
            # [left image of t | 0 | t]: a pivot leading in live
            # coordinate j carries interval j into the top at k + 1, one
            # leading in the top coordinates is a kernel vector and
            # starts an interval there
            xs = maps[run[k + 1].cls][0]
            width = max(t.bit_length() for t in run[k + 1].space)
            n = len(live)
            rows = [r << n + width for r in run[k].rad2.values()]
            rows += [(v << n | 1 << j) << width for j, (_, v) in enumerate(live)]
            rows += [(_image(xs, t) << n + width) | t for t in run[k + 1].space]
            piv = echelon(rows)
            for j, (start, _) in enumerate(live):
                row = piv.get(width + j)
                if row is None:
                    found.append(_interval_summand(run, start, k, d_top, ssum))
                else:
                    nxt.append((start, row & ((1 << width) - 1)))
            nxt += [(k + 1, row) for lead, row in piv.items() if lead < width]
        live = nxt
    found += [_interval_summand(run, start, len(run) - 1, d_top, ssum) for start, _ in live]
    return found


def _interval_summand(run, l, r, d_top, ssum) -> Summand:
    a, b = run[l], run[r]
    width = r - l
    if a.is_top and b.is_top:
        lam = width // 2
        return Summand("Y", d_top, lam, (a.pos, ssum - a.pos - 2 * lam))
    if not a.is_top and not b.is_top:
        lam = width // 2
        first = a.pos - 1
        return Summand("X", d_top - 1, lam, (first, ssum - 2 - first - 2 * lam))
    lam = (width + 1) // 2
    if a.is_top:
        return Summand("H", d_top, lam, (a.pos, ssum - a.pos))
    return Summand("V", d_top, lam, (b.pos, ssum - b.pos))


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
    for a, b in sorted(cx.arrows):
        drop = tuple(p - q for p, q in zip(cx.filt2(a), cx.filt2(b)))
        if drop not in ((2, 0), (0, 2)):
            raise ValueError(
                f"complex is not E₂-collapsed: arrow {a}->{b} moves the filtration "
                f"by ({drop[0]}/2, {drop[1]}/2)"
            )
    maps = _module(cx)
    rad2 = _rad2(maps)
    squares = [Summand("B", m, 0, h2) for (m, h2), basis in rad2.items() for _ in basis]
    # each square also shows in the zigzag, as an X^1 one grading up
    strings = Counter(_string_decomposition(maps, rad2))
    strings.subtract(Summand("X", s.d + 1, 1, s.shift2) for s in squares)
    summands = sorted(squares + list(strings.elements()))
    _verify_rebuild(cx, summands)
    return summands


def sum_cells(summands) -> Counter:
    """Generator counts of ``build_sum(summands)`` by (Maslov, doubled
    level), for two-coordinate summands, without building it."""
    cells: Counter = Counter()
    for s in summands:
        d, (x0, y0) = s.d, s.shift2
        for _, m, (x, y) in _standard_model(s.kind, s.lparam)[0]:
            cells[(m + d, (x + x0, y + y0))] += 1
    return cells


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
    cancellation never crosses summands.
    """
    total: Counter = Counter()
    per_coordinate = ((Counter(), Counter()), (Counter(), Counter()))
    for s in summands:
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


def _verify_rebuild(cx: FilteredComplex, summands) -> None:
    """Check the summands against invariants of the input complex.

    Generator counts, total homology and, per coordinate, the
    e-decomposition of the component homology are compared with the
    closed forms of the model summands; only the input is cancelled.
    The e-decomposition fixes the component homology's counts: every
    generator is a pair end or a free generator, and a pair's bottom
    sits one grading and 2λ levels below its top.
    """
    if cx.counts().ranks != sum_cells(summands):
        raise AssertionError("decomposition does not match the generator counts")
    total, per_coordinate = sum_invariants(summands)
    if total_homology(cx) != total:
        raise AssertionError("decomposition does not match total homology")
    for i, expected in zip((1, 2), per_coordinate):
        if e_decomposition(component_homology(cx, i)) != expected:
            raise AssertionError(
                f"decomposition does not match the coordinate-{i} homology"
            )
