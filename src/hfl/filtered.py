"""Finitely generated chain complexes over GF(2) with a multi-filtration.

A complex here is a finite set of generators, each carrying an integer
Maslov grading and a filtration level in (1/2)Z per coordinate, together
with a set of arrows (matrix entries of the differential, which over
GF(2) is just a set of ordered pairs).  Filtration levels are stored
doubled, as in :mod:`hfl.laurent`, so everything is integer arithmetic.

A legal complex has every arrow dropping the Maslov grading by exactly
one, never raising any filtration coordinate, and squaring to zero.
The operations in this module compute associated graded homology, total
homology, the pages of the spectral sequence induced by the total drop
in filtration, and the filtered homotopy type left after cancelling the
part of the differential that moves only one chosen coordinate.

GF(2) linear algebra is done on bitmask integers, one Python int per
row; an int holds a row of any width, so no sparse-matrix machinery is
needed: every elimination in the package, here and in
:mod:`hfl.summands`, goes through :func:`echelon`.  Spectral pages and
component homology share one Gaussian-cancellation engine,
``_cancel_all``.  It cancels the arrows a -> b with
``key[a] - key[b] == gap``, smallest (a, b) first, from a heap of packed
ints ``a * n + b``, toggling the rerouted rows in place.  It works on
integer positions, not ids: ``_index`` numbers a complex's generators
by their rank in sorted id order, so the smallest arrow by position is
the smallest by id.  The numbering is computed once and kept on the
instance, which never changes, as is its validation report; the checks,
both homologies, cancellation and :func:`hfl.summands.decompose` all
read it.

Validation happens where data enters: the public ``MultiGradedVS``
constructor checks every entry it is given (JSON, the CLI, callers).
``FilteredComplex.counts``, ``assoc_graded_homology``,
``spectral_pages`` and ``tensor_graded`` build their rank dicts from the
levels of a constructed complex or of existing ``MultiGradedVS`` values,
checked when those were made, and their ranks are generator counts,
products of ranks, or homology dimensions, which ``_graded_homology``
refuses to let go negative.  So they hand the dicts over unchecked,
through ``MultiGradedVS._trusted``.  ``MultiGradedVS.euler`` keys its
terms by those checked levels and drops the coefficients that cancel,
so it hands them to ``MultiLaurent._trusted`` the same way.  The
public ``FilteredComplex`` constructor checks every generator and
arrow it is given.  It, the ``MultiGradedVS`` constructor and ``shift``
pass every number through :func:`hfl.laurent.as_ints`, which stores a
value equal to an int as that int and refuses any other, naming its
field, rather than truncate it.  Three builders hand complexes over
through ``FilteredComplex._trusted``: ``summands.build_sum`` places the
cells of checked summands and tests only each summand's coordinate
count and parity, ``component_homology`` keeps the ids, gradings
and projected levels of the surviving generators of a valid complex,
with the arrows the cancellation leaves between them, and
:mod:`hfl.heegaard` grades the intersection points of a diagram it
built and counts the bigons between them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Iterable, Mapping, Sequence

from .laurent import MultiLaurent, _field, as_ints, fmt_half

__all__ = [
    "FilteredComplex",
    "MultiGradedVS",
    "ValidationReport",
    "validate",
    "require_valid",
    "echelon",
    "assoc_graded_homology",
    "asymmetric_cell",
    "first_difference",
    "total_homology",
    "spectral_pages",
    "component_homology",
    "shift",
    "direct_sum",
    "tensor_graded",
]


class MultiGradedVS:
    """Ranks of a vector space graded by (Maslov, filtration level).

    ``ranks`` maps pairs (d, doubled level) to positive integers, or is
    an iterable of (d, doubled level, rank) triples with duplicates
    aggregated.  The parity vector, of 0s and 1s, applies to every level
    that occurs.  A value that is not an integer is refused, naming its
    field.  Values compare by their ranks and are unhashable.
    """

    __slots__ = ("nvars", "parity", "ranks")

    def __init__(self, nvars: int, parity: Sequence[int], ranks=()):
        (self.nvars,) = as_ints((nvars,), "rank table coordinate count")
        self.parity = as_ints(parity, "rank table parity entry")
        if len(self.parity) != self.nvars:
            raise ValueError("parity vector has wrong length")
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("bad parity vector")
        if isinstance(ranks, Mapping):
            entries = [(d, h2, r) for (d, h2), r in ranks.items()]
        else:
            entries = list(ranks)
        clean: dict[tuple[int, tuple[int, ...]], int] = {}
        for d, h2, r in entries:
            (d,) = as_ints((d,), "rank table Maslov grading")
            level = as_ints(h2, "rank table grading coordinate")
            (r,) = as_ints((r,), "cell %r rank", (d, level))
            if len(level) != self.nvars:
                raise ValueError("grading vector has wrong length")
            for x, p in zip(level, self.parity):
                if x % 2 != p:
                    raise ValueError(f"grading {level} violates parity {self.parity}")
            if r < 0:
                raise ValueError("ranks must be nonnegative")
            if r:
                clean[(d, level)] = clean.get((d, level), 0) + r
        self.ranks = clean

    @classmethod
    def _trusted(cls, nvars: int, parity: tuple[int, ...], ranks: dict) -> "MultiGradedVS":
        """Wrap a rank dict built from checked values, without re-checking it.

        ``ranks`` must already be what the public constructor would keep:
        (int, int-tuple) keys of the right length and parity, positive ranks.
        The callers here build it from the levels of a constructed complex
        or of existing tables; ``homology._table_from_target`` builds it
        from a checked polynomial and tests each level's parity itself.
        """
        v = cls.__new__(cls)
        v.nvars, v.parity, v.ranks = nvars, parity, ranks
        return v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGradedVS)
            and self.nvars == other.nvars
            and self.parity == other.parity
            and self.ranks == other.ranks
        )

    def rank(self, d: int, h2: Iterable[int]) -> int:
        return self.ranks.get((d, tuple(h2)), 0)

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def by_maslov(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (d, _h2), r in self.ranks.items():
            out[d] = out.get(d, 0) + r
        return out

    def euler(self) -> MultiLaurent:
        """Graded Euler characteristic as a Laurent polynomial."""
        terms: dict[tuple[int, ...], int] = {}
        for (d, h2), r in self.ranks.items():
            c = r if d % 2 == 0 else -r
            terms[h2] = terms.get(h2, 0) + c
        return MultiLaurent._trusted(self.nvars, {h2: c for h2, c in terms.items() if c})

    def to_json_dict(self) -> dict:
        entries = [
            {"d": d, "h2": list(h2), "r": r}
            for (d, h2), r in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        return {"l": self.nvars, "parity": list(self.parity), "ranks": entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiGradedVS":
        """The table of a ``to_json_dict`` document, refusing a malformed one
        as ``FilteredComplex.from_json_dict`` does."""
        nvars = _field(data, "l", "rank table")
        parity = _field(data, "parity", "rank table", list)
        entries = []
        for i, e in enumerate(_field(data, "ranks", "rank table", list)):
            where = f"rank entry {i}"
            entries.append(
                (_field(e, "d", where), _field(e, "h2", where, list), _field(e, "r", where))
            )
        return cls(nvars, parity, entries)

    def table_str(self) -> str:
        """Human-readable listing, one grading per line."""
        lines = []
        for (d, h2), r in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            level = "(" + ",".join(map(fmt_half, h2)) + ")"
            lines.append(f"h={level}  d={d}  rank={r}")
        return "\n".join(lines) if lines else "(zero)"

    def __repr__(self):
        return f"MultiGradedVS({self.nvars}, {self.parity}, {self.ranks!r})"


class FilteredComplex:
    """An immutable filtered complex over GF(2).

    ``gens`` is a sequence of (id, maslov, doubled filtration) triples
    with distinct string ids; ``arrows`` a collection of (source, target)
    id pairs.  The constructor checks structural well-formedness (unique
    ids, parity, arrow endpoints) and refuses a Maslov grading or level
    that is not an integer, naming the generator; the chain conditions are
    checked separately by :func:`validate` so that deliberately broken
    complexes can still be built and reported on.  Complexes compare by
    value and are unhashable.
    """

    __slots__ = ("nvars", "parity", "_order", "_maslov", "_filt", "_arrows", "_report", "_index")

    def __init__(
        self,
        nvars: int,
        parity: Sequence[int],
        gens: Iterable[tuple],
        arrows: Iterable[tuple] = (),
    ):
        (self.nvars,) = as_ints((nvars,), "complex coordinate count")
        self.parity = parity = as_ints(parity, "complex parity entry")
        if len(parity) != self.nvars or any(p not in (0, 1) for p in parity):
            raise ValueError("bad parity vector")
        order: list[str] = []
        maslov: dict[str, int] = {}
        filt: dict[str, tuple[int, ...]] = {}
        for gid, d, h2 in gens:
            gid = str(gid)
            if gid in maslov:
                raise ValueError(f"duplicate generator id {gid!r}")
            (d,) = as_ints((d,), "generator %r Maslov grading", gid)
            level = as_ints(h2, "generator %r filtration coordinate", gid)
            if len(level) != self.nvars:
                raise ValueError(f"generator {gid!r} has a filtration of wrong length")
            for x, p in zip(level, parity):
                if x % 2 != p:
                    raise ValueError(f"generator {gid!r} violates parity {parity}")
            order.append(gid)
            maslov[gid] = d
            filt[gid] = level
        arrs = set()
        for a, b in arrows:
            a, b = str(a), str(b)
            if a not in maslov or b not in maslov:
                raise ValueError(f"arrow ({a!r}, {b!r}) has an unknown endpoint")
            arrs.add((a, b))
        self._order = tuple(order)
        self._maslov = maslov
        self._filt = filt
        self._arrows = frozenset(arrs)
        self._report = self._index = None  # set on first use; the instance never changes

    @classmethod
    def _trusted(
        cls, nvars: int, parity: tuple[int, ...], maslov: dict, filt: dict, arrows: frozenset
    ) -> "FilteredComplex":
        """Wrap generator and arrow data built from checked values, without
        re-checking it.

        The data must already be what the public constructor would keep:
        ``maslov`` and ``filt`` map the same str ids, in generator order,
        to ints and to int tuples of length ``nvars`` on the ``parity``
        coset, and ``arrows`` holds (source, target) pairs of those ids.
        ``summands.build_sum`` builds it from checked summands and tests
        each summand's coordinate count and parity itself;
        ``component_homology`` builds it from the surviving generators of
        a valid complex, in sorted id order; and
        ``heegaard.filtered_complex_from_diagram`` and
        ``complex_from_diagram`` build it from the str-named intersection
        points of a diagram, their int gradings and their bigons.  Like
        the public constructor, it leaves the validation report and the
        ``_index`` numbering unset, to be computed on first use.
        """
        cx = cls.__new__(cls)
        cx.nvars, cx.parity, cx._maslov, cx._filt, cx._arrows = nvars, parity, maslov, filt, arrows
        cx._order = tuple(maslov)
        cx._report = cx._index = None
        return cx

    # ---- accessors ----

    @property
    def gen_ids(self) -> tuple[str, ...]:
        return self._order

    @property
    def arrows(self) -> frozenset:
        return self._arrows

    def __len__(self) -> int:
        return len(self._order)

    def maslov(self, gid: str) -> int:
        return self._maslov[gid]

    def filt2(self, gid: str) -> tuple[int, ...]:
        return self._filt[gid]

    def gens(self) -> list[tuple[str, int, tuple[int, ...]]]:
        return [(g, self._maslov[g], self._filt[g]) for g in self._order]

    def counts(self) -> MultiGradedVS:
        """Generator counts per (maslov, filtration level), read off the
        grading dicts, which hold the generators in one order."""
        ranks = Counter(zip(self._maslov.values(), self._filt.values()))
        return MultiGradedVS._trusted(self.nvars, self.parity, dict(ranks))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FilteredComplex)
            and self.nvars == other.nvars
            and self.parity == other.parity
            and self._maslov == other._maslov
            and self._filt == other._filt
            and self._arrows == other._arrows
        )

    def __repr__(self):
        return f"FilteredComplex(l={self.nvars}, gens={len(self)}, arrows={len(self._arrows)})"

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        return {
            "l": self.nvars,
            "parity": list(self.parity),
            "gens": [
                {"id": g, "d": self._maslov[g], "h2": list(self._filt[g])}
                for g in sorted(self._order)
            ],
            "arrows": sorted([a, b] for a, b in self._arrows),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FilteredComplex":
        """The complex of a ``to_json_dict`` document, such as a fixture file.

        A document that is not an object, lacks a field, or gives one the
        wrong shape is refused with a ``ValueError`` naming the field; the
        constructor then checks the values.
        """
        nvars = _field(data, "l", "complex")
        parity = _field(data, "parity", "complex", list)
        gens = []
        for i, g in enumerate(_field(data, "gens", "complex", list)):
            gid = _field(g, "id", f"generator {i}")
            where = f"generator {gid!r}"
            gens.append((gid, _field(g, "d", where), _field(g, "h2", where, list)))
        arrows = data.get("arrows", [])
        if not isinstance(arrows, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in arrows
        ):
            raise ValueError("complex field 'arrows' is not a list of [source, target] pairs")
        return cls(nvars, parity, gens, [tuple(p) for p in arrows])


def _index(cx: FilteredComplex):
    """The generators as (id, Maslov, doubled level) in sorted id order,
    and the arrows as (source, target) pairs of positions in that order.

    The one numbering of a complex, computed on the first call and kept
    on it.  Position pairs sort as the id pairs they stand for.  The arrow
    pairs come in the hash-seed-dependent order of the arrow set, so every
    reader sorts them or gathers them into sets or bitmasks.
    """
    if cx._index is None:
        gens = tuple(sorted(cx.gens()))
        position = {g: p for p, (g, _, _) in enumerate(gens)}
        cx._index = gens, tuple((position[a], position[b]) for a, b in cx._arrows)
    return cx._index


# ----------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a pass/fail check, truthy when it passed; a failed one
    names its ``kind`` and ``detail``, and a passed one may carry its kind.

    ``validate``'s kinds are ``arrow_grading`` (an arrow not dropping
    Maslov by one), ``filtration`` (an arrow raising a coordinate) and
    ``d_squared``; ``homology.verify``'s are the names of its checks.
    """

    ok: bool
    kind: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(cx: FilteredComplex) -> ValidationReport:
    """Check arrow gradings, filtration monotonicity, and d^2 = 0.

    The report is computed on the first call and kept on the complex,
    which is immutable, so later calls return the same report.
    """
    if cx._report is None:
        cx._report = _chain_report(cx)
    return cx._report


def require_valid(cx: FilteredComplex) -> None:
    """Refuse an illegal complex with the first violation found."""
    rep = validate(cx)
    if not rep:
        raise ValueError(f"not a legal filtered complex: {rep.detail}")


def _chain_report(cx: FilteredComplex) -> ValidationReport:
    gens, arrows = _index(cx)
    for p, q in sorted(arrows):
        (a, da, ha), (b, db, hb) = gens[p], gens[q]
        if da - db != 1:
            return ValidationReport(
                False, "arrow_grading", f"arrow {a}->{b} drops maslov by {da - db}, not 1"
            )
        for i, (xa, xb) in enumerate(zip(ha, hb)):
            if xb > xa:
                return ValidationReport(
                    False,
                    "filtration",
                    f"arrow {a}->{b} raises coordinate {i + 1} by {fmt_half(xb - xa)}",
                )
    out, _ = _adjacency(len(gens), arrows)
    for p, row in enumerate(out):
        square: set[int] = set()
        for m in row:
            square ^= out[m]
        if square:
            return ValidationReport(
                False,
                "d_squared",
                f"d^2 of {gens[p][0]} hits {gens[min(square)][0]} an odd number of times",
            )
    return ValidationReport(True)


# ----------------------------------------------------------------------
# GF(2) elimination on bitmasks

def echelon(vectors: Iterable[int], piv: dict[int, int] | None = None) -> dict[int, int]:
    """Reduce bitmask vectors into a basis keyed by leading bit.

    Each vector is reduced against the basis ``piv`` (extended in place
    when given) and joins it under its new leading bit unless it
    reduces to zero.  The rank is the size of the result; keys keep
    insertion order, so the last key is the newest pivot.
    """
    if piv is None:
        piv = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            b = piv.get(top)
            if b is None:
                piv[top] = v
                break
            v ^= b
    return piv


def _graded_homology(cells: list[tuple], arrows: Iterable[tuple[int, int]]) -> dict:
    """Homology ranks by cell of a complex given by position pairs.

    Generator p lies in the cell ``cells[p]``, a (Maslov, level) pair,
    and ``arrows`` holds (source, target) pairs of positions, assumed to
    drop Maslov by one and to keep the level.  The boundary rank out of
    a cell is the rank of its generators' rows, as bitmasks over all
    positions.
    """
    rows: dict[int, int] = {}  # source position -> its row of the differential
    for p, q in arrows:
        rows[p] = rows.get(p, 0) | 1 << q
    by_cell: dict[tuple, list[int]] = {}
    for p, row in rows.items():
        by_cell.setdefault(cells[p], []).append(row)
    bnd_rank = {cell: len(echelon(rs)) for cell, rs in by_cell.items()}
    hom: dict = {}
    for (d, level), n in Counter(cells).items():
        h = n - bnd_rank.get((d, level), 0) - bnd_rank.get((d + 1, level), 0)
        if h < 0:
            raise ValueError("not a legal filtered complex: a homology rank is negative")
        if h:
            hom[(d, level)] = h
    return hom


# ----------------------------------------------------------------------
# Homology and spectral pages

def assoc_graded_homology(cx: FilteredComplex) -> MultiGradedVS:
    """Homology of the filtration-preserving part, one level at a time."""
    gens, arrows = _index(cx)
    cells = [(d, h2) for _, d, h2 in gens]
    kept = [(p, q) for p, q in arrows if gens[p][2] == gens[q][2]]
    return MultiGradedVS._trusted(cx.nvars, cx.parity, _graded_homology(cells, kept))


def asymmetric_cell(ranks: Mapping) -> tuple | None:
    """The first (Maslov, doubled level) cell, in sorted order, whose rank
    differs from its partner's, as (cell, partner); None if there is none.
    A link's homology has the same rank at (d, h) as at its partner
    (d - 2*o(h), -h), o(h) being the coordinate sum of h.

    The cells are scanned in dict order, one lookup of the partner per
    cell, and the failing ones collected; only they are compared for the
    first, so a symmetric table is never sorted.
    """
    get = ranks.get
    failing = [(d, h2) for (d, h2), r in ranks.items()
               if r != get((d - sum(h2), tuple(map(neg, h2))), 0)]
    if not failing:
        return None
    d, h2 = min(failing)
    return (d, h2), (d - sum(h2), tuple(map(neg, h2)))


def first_difference(a: Mapping, b: Mapping) -> tuple | None:
    """The first (Maslov, doubled level) cell, in the order ``table_str``
    lists them, where the rank dicts ``a`` and ``b`` differ, as
    (d, h2, rank in a, rank in b); None if they agree."""
    differ = [cell for cell in a.keys() | b.keys() if a.get(cell, 0) != b.get(cell, 0)]
    if not differ:
        return None
    d, h2 = min(differ, key=lambda cell: (cell[1], cell[0]))
    return d, h2, a.get((d, h2), 0), b.get((d, h2), 0)


def total_homology(cx: FilteredComplex) -> dict[int, int]:
    """Homology ranks by Maslov degree, filtration forgotten."""
    gens, arrows = _index(cx)
    hom = _graded_homology([(d, ()) for _, d, _ in gens], arrows)
    # degrees in the order they first occur among the generators
    return {d: hom[(d, ())] for d in dict.fromkeys(cx._maslov.values()) if (d, ()) in hom}


def _cancel_all(
    out: list[set[int] | None], inc: list[set[int] | None], key: Sequence[int], gap: int
) -> None:
    """Cancel every arrow a -> b with ``key[a] - key[b] == gap`` until none
    is left, smallest (a, b) first.

    ``out`` and ``inc`` are ``_adjacency``'s lists and ``key`` an int
    list, all indexed by position.  Arrows wait in a min-heap as packed
    ints ``a * n + b``, n = len(out), which sort as the pairs (a, b)
    since 0 <= b < n.  Cancelling x -> y toggles x's other targets into
    the row of every other source of y, in place, keeping ``inc`` in
    step, and pushes each arrow switched on whose key difference is
    ``gap``; x and y are then detached, their entries set to None.  An
    entry since toggled off or left without an endpoint is skipped, so
    each pick is the smallest eligible arrow present, which is the
    smallest pair of ids.  The order decides which generators survive.
    """
    n = len(out)
    heap = [a * n + b for a, row in enumerate(out) if row for b in row if key[a] - key[b] == gap]
    heapify(heap)
    while heap:
        x, y = divmod(heappop(heap), n)
        targets = out[x]
        if targets is None or y not in targets:
            continue
        targets.discard(y)
        sources = inc[y]
        sources.discard(x)
        for a in sources:
            row = out[a]
            row.discard(y)
            row ^= targets
            want = key[a] - gap
            for b in targets:
                if b in row:
                    inc[b].add(a)
                    if key[b] == want:
                        heappush(heap, a * n + b)
                else:
                    inc[b].discard(a)
        for b in targets:
            inc[b].discard(x)
        for b in out[y]:
            inc[b].discard(y)
        for a in inc[x]:
            out[a].discard(x)
        out[x] = out[y] = inc[x] = inc[y] = None


def _adjacency(n: int, arrows: Iterable[tuple[int, int]]):
    """Out- and in-sets by position of ``n`` generators with the arrows
    given as ``_index`` position pairs.

    ``out[p]`` holds the positions p's arrows point to and ``inc[p]`` the
    positions of the arrows pointing to it.  Cancellation and the d²
    check work on these sets.
    """
    out: list[set[int] | None] = [set() for _ in range(n)]
    inc: list[set[int] | None] = [set() for _ in range(n)]
    for p, q in arrows:
        out[p].add(q)
        inc[q].add(p)
    return out, inc


def spectral_pages(cx: FilteredComplex) -> list[MultiGradedVS]:
    """Pages E_1, E_2, ..., E_infinity of the total-drop spectral sequence.

    Arrows are cancelled in rounds ordered by the total filtration drop:
    round r removes every arrow whose coordinates sum to a drop of r,
    recording the surviving generators as a page after each round.  A
    rerouted arrow never drops less than the arrow being cancelled, so
    rounds are exhaustive.  The first page is the associated graded
    homology; the last page, recorded once no arrows remain, is stable.
    Round r is one ``_cancel_all`` with the doubled coordinate sums as
    keys and gap 2r; each page counts the live cells in generator order.
    """
    require_valid(cx)
    gens, arrows = _index(cx)
    out, inc = _adjacency(len(gens), arrows)
    level = [sum(h2) for _, _, h2 in gens]
    position = {g: (p, (d, h2)) for p, (g, d, h2) in enumerate(gens)}
    # each generator's position and cell, in generator order
    cells = [position[g] for g in cx._order]
    pages: list[MultiGradedVS] = []
    r = 0
    while True:
        _cancel_all(out, inc, level, 2 * r)
        ranks = Counter(cell for p, cell in cells if out[p] is not None)
        pages.append(MultiGradedVS._trusted(cx.nvars, cx.parity, dict(ranks)))
        if not any(out):
            break
        r += 1
    return pages


def component_homology(cx: FilteredComplex, i: int) -> FilteredComplex:
    """Cancel every arrow moving only coordinate ``i`` and project it away.

    The result is a complex filtered by the remaining coordinates whose
    generators form the homology with respect to the coordinate-``i``
    part of the differential, carrying the induced differential.  For a
    two-coordinate complex, ``i = 2`` keeps the first coordinate.  The
    cancellation is one ``_cancel_all`` with gap 0, keyed by the distinct
    projected levels numbered in position order.
    """
    (i,) = as_ints((i,), "coordinate index")
    if not 1 <= i <= cx.nvars:
        raise ValueError("coordinate index out of range")
    require_valid(cx)
    gens, arrows = _index(cx)
    out, inc = _adjacency(len(gens), arrows)
    # the level with coordinate i projected away
    proj = [h2[: i - 1] + h2[i:] for _, _, h2 in gens]
    ids: dict[tuple[int, ...], int] = {}
    _cancel_all(out, inc, [ids.setdefault(h, len(ids)) for h in proj], 0)
    maslov: dict[str, int] = {}
    filt: dict[str, tuple[int, ...]] = {}
    for p, row in enumerate(out):
        if row is not None:
            g, d, _ = gens[p]
            maslov[g] = d
            filt[g] = proj[p]
    # cx is valid, so no arrow raises a level; nor does a rerouted a -> b
    # through a cancelled x -> y, since proj[a] >= proj[y] = proj[x] >= proj[b]
    kept = frozenset((gens[a][0], gens[b][0]) for a, row in enumerate(out) if row for b in row)
    parity = cx.parity[: i - 1] + cx.parity[i:]
    return FilteredComplex._trusted(cx.nvars - 1, parity, maslov, filt, kept)


# ----------------------------------------------------------------------
# Shifts, sums, tensor products

def shift(cx: FilteredComplex, h2: Sequence[int]) -> FilteredComplex:
    """Translate every filtration level by the doubled vector ``h2``, whose
    entries must be integers."""
    h2 = as_ints(h2, "shift vector coordinate")
    if len(h2) != cx.nvars:
        raise ValueError("shift vector has wrong length")
    parity = tuple((p + x) % 2 for p, x in zip(cx.parity, h2))
    gens = [
        (g, cx.maslov(g), tuple(a + b for a, b in zip(cx.filt2(g), h2)))
        for g in cx.gen_ids
    ]
    return FilteredComplex(cx.nvars, parity, gens, cx.arrows)


def direct_sum(parts: Sequence[FilteredComplex]) -> FilteredComplex:
    """Disjoint union with ids prefixed by the part index."""
    if not parts:
        raise ValueError("empty direct sum")
    nvars, parity = parts[0].nvars, parts[0].parity
    gens, arrows = [], []
    for k, p in enumerate(parts):
        if p.nvars != nvars or p.parity != parity:
            raise ValueError("direct summands disagree on variables or parity")
        for g, d, h2 in p.gens():
            gens.append((f"s{k}.{g}", d, h2))
        for a, b in p.arrows:
            arrows.append((f"s{k}.{a}", f"s{k}.{b}"))
    return FilteredComplex(nvars, parity, gens, arrows)


def tensor_graded(
    v1: MultiGradedVS, v2: MultiGradedVS, splice: tuple[int, int] = (1, 1)
) -> MultiGradedVS:
    """Graded tensor product identifying one coordinate of each factor.

    ``splice = (i, j)`` adds coordinate i of the first factor to
    coordinate j of the second; the merged coordinate keeps position i,
    the remaining coordinates of the second factor are appended in
    order.  This is the rank-level Kunneth pattern for joining two links
    along the named components.
    """
    pair = as_ints(splice, "splice index")
    if len(pair) != 2:
        raise ValueError(f"splice {pair!r} is not a pair (i, j)")
    i, j = pair
    if not 1 <= i <= v1.nvars or not 1 <= j <= v2.nvars:
        raise ValueError("splice indices out of range")
    i -= 1
    j -= 1
    rest2 = [t for t in range(v2.nvars) if t != j]
    parity = list(v1.parity)
    parity[i] = (v1.parity[i] + v2.parity[j]) % 2
    parity += [v2.parity[t] for t in rest2]
    second = [(d2, h2[j], tuple(h2[t] for t in rest2), r2) for (d2, h2), r2 in v2.ranks.items()]
    ranks: dict = {}
    for (d1, h1), r1 in v1.ranks.items():
        head, x, tail = h1[:i], h1[i], h1[i + 1:]
        for d2, y, rest, r2 in second:
            key = (d1 + d2, head + (x + y,) + tail + rest)
            ranks[key] = ranks.get(key, 0) + r1 * r2
    return MultiGradedVS._trusted(v1.nvars + v2.nvars - 1, tuple(parity), ranks)
