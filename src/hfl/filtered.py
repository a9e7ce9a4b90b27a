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

Generator sets are small (tens, not thousands), so GF(2) linear algebra
is done on bitmask integers without any sparse-matrix machinery: every
elimination in the package, here and in :mod:`hfl.summands`, goes
through :func:`echelon`.  Spectral pages and component homology share
one Gaussian-cancellation engine, ``_cancel_all``.  A complex's
validation report is computed once and kept on the instance.

Validation happens where data enters: the public ``MultiGradedVS``
constructor checks every entry it is given (JSON, the CLI, callers).
``FilteredComplex.counts``, ``assoc_graded_homology``,
``spectral_pages`` and ``tensor_graded`` build their rank dicts from the
levels of a constructed complex or of existing ``MultiGradedVS`` values,
checked when those were made, and their ranks are generator counts,
products of ranks, or homology dimensions, which ``_graded_homology``
refuses to let go negative.  So they hand the dicts over unchecked,
through ``MultiGradedVS._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .laurent import MultiLaurent, fmt_half

__all__ = [
    "AlexGrading",
    "FilteredComplex",
    "MultiGradedVS",
    "ValidationReport",
    "validate",
    "require_valid",
    "echelon",
    "assoc_graded_homology",
    "total_homology",
    "spectral_pages",
    "component_homology",
    "shift",
    "direct_sum",
    "tensor_graded",
]


@dataclass(frozen=True)
class AlexGrading:
    """A filtration level: doubled half-integer coordinates plus parity.

    ``doubled[i]`` is twice the i-th coordinate and must agree with
    ``parity[i]`` mod 2, so the level lies on the lattice coset fixed by
    the parity vector.
    """

    doubled: tuple[int, ...]
    parity: tuple[int, ...]

    def __post_init__(self):
        if len(self.doubled) != len(self.parity):
            raise ValueError("doubled and parity vectors differ in length")
        for x, p in zip(self.doubled, self.parity):
            if p not in (0, 1):
                raise ValueError("parity entries must be 0 or 1")
            if x % 2 != p:
                raise ValueError(f"coordinate {x}/2 violates parity {p}")

    @property
    def l(self) -> int:
        return len(self.doubled)

    def delta(self) -> Fraction:
        """Sum of the coordinates (the total filtration level)."""
        return Fraction(sum(self.doubled), 2)

    def __neg__(self) -> "AlexGrading":
        return AlexGrading(tuple(-x for x in self.doubled), self.parity)

    def __str__(self) -> str:
        return "(" + ",".join(map(fmt_half, self.doubled)) + ")"


class MultiGradedVS:
    """Ranks of a vector space graded by (Maslov, filtration level).

    ``ranks`` maps pairs (d, doubled level) to positive integers, or is
    an iterable of (d, doubled level, rank) triples with duplicates
    aggregated.  The parity vector applies to every level that occurs.
    """

    __slots__ = ("nvars", "parity", "ranks")

    def __init__(self, nvars: int, parity: Sequence[int], ranks=None):
        self.nvars = int(nvars)
        self.parity = tuple(int(p) for p in parity)
        if len(self.parity) != self.nvars:
            raise ValueError("parity vector has wrong length")
        if ranks is None:
            entries = []
        elif isinstance(ranks, Mapping):
            entries = [(d, h2, r) for (d, h2), r in ranks.items()]
        else:
            entries = list(ranks)
        clean: dict[tuple[int, tuple[int, ...]], int] = {}
        for d, h2, r in entries:
            h2 = tuple(int(x) for x in h2)
            if len(h2) != self.nvars:
                raise ValueError("grading vector has wrong length")
            for x, p in zip(h2, self.parity):
                if x % 2 != p:
                    raise ValueError(f"grading {h2} violates parity {self.parity}")
            if r < 0:
                raise ValueError("ranks must be nonnegative")
            if r:
                clean[(int(d), h2)] = clean.get((int(d), h2), 0) + int(r)
        self.ranks = clean

    @classmethod
    def _trusted(cls, nvars: int, parity: tuple[int, ...], ranks: dict) -> "MultiGradedVS":
        """Wrap a rank dict built inside this module, without re-checking it.

        ``ranks`` must already be what the public constructor would keep:
        (int, int-tuple) keys of the right length and parity, positive ranks.
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

    def __hash__(self):
        return hash((self.nvars, self.parity, frozenset(self.ranks.items())))

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
        return MultiLaurent(self.nvars, terms)

    def to_json_dict(self) -> dict:
        entries = [
            {"d": d, "h2": list(h2), "r": r}
            for (d, h2), r in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        return {"l": self.nvars, "parity": list(self.parity), "ranks": entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiGradedVS":
        entries = [(e["d"], tuple(e["h2"]), e["r"]) for e in data["ranks"]]
        return cls(data["l"], tuple(data["parity"]), entries)

    def table_str(self) -> str:
        """Human-readable listing, one grading per line."""
        lines = []
        for (d, h2), r in sorted(self.ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            level = AlexGrading(h2, self.parity)
            lines.append(f"h={level}  d={d}  rank={r}")
        return "\n".join(lines) if lines else "(zero)"

    def __repr__(self):
        return f"MultiGradedVS({self.nvars}, {self.parity}, {self.ranks!r})"


class FilteredComplex:
    """An immutable filtered complex over GF(2).

    ``gens`` is a sequence of (id, maslov, doubled filtration) triples
    with distinct string ids; ``arrows`` a collection of (source, target)
    id pairs.  The constructor checks structural well-formedness (unique
    ids, parity, arrow endpoints); the chain conditions are checked
    separately by :func:`validate` so that deliberately broken complexes
    can still be built and reported on.
    """

    __slots__ = ("nvars", "parity", "_order", "_maslov", "_filt", "_arrows", "_report")

    def __init__(
        self,
        nvars: int,
        parity: Sequence[int],
        gens: Iterable[tuple],
        arrows: Iterable[tuple] = (),
    ):
        self.nvars = int(nvars)
        self.parity = tuple(int(p) for p in parity)
        if len(self.parity) != self.nvars or any(p not in (0, 1) for p in self.parity):
            raise ValueError("bad parity vector")
        order: list[str] = []
        maslov: dict[str, int] = {}
        filt: dict[str, tuple[int, ...]] = {}
        for gid, d, h2 in gens:
            gid = str(gid)
            if gid in maslov:
                raise ValueError(f"duplicate generator id {gid!r}")
            h2 = tuple(int(x) for x in h2)
            if len(h2) != self.nvars:
                raise ValueError(f"generator {gid!r} has a filtration of wrong length")
            for x, p in zip(h2, self.parity):
                if x % 2 != p:
                    raise ValueError(f"generator {gid!r} violates parity {self.parity}")
            order.append(gid)
            maslov[gid] = int(d)
            filt[gid] = h2
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
        self._report = None  # set by validate(); the instance never changes

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
        """Generator counts per (maslov, filtration level)."""
        ranks: dict = {}
        for g in self._order:
            key = (self._maslov[g], self._filt[g])
            ranks[key] = ranks.get(key, 0) + 1
        return MultiGradedVS._trusted(self.nvars, self.parity, ranks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FilteredComplex)
            and self.nvars == other.nvars
            and self.parity == other.parity
            and self._maslov == other._maslov
            and self._filt == other._filt
            and self._arrows == other._arrows
        )

    def __hash__(self):
        return hash((self.nvars, self.parity, frozenset(self._maslov.items()), self._arrows))

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
        return cls(
            data["l"],
            data["parity"],
            [(g["id"], g["d"], g["h2"]) for g in data["gens"]],
            [tuple(p) for p in data.get("arrows", [])],
        )


# ----------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three chain-complex checks.

    ``kind`` of the first violation found is one of ``arrow_grading``
    (an arrow not dropping Maslov by one), ``filtration`` (an arrow
    raising a coordinate), or ``d_squared``.
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
    for a, b in sorted(cx.arrows):
        da, db = cx.maslov(a), cx.maslov(b)
        if da - db != 1:
            return ValidationReport(
                False, "arrow_grading", f"arrow {a}->{b} drops maslov by {da - db}, not 1"
            )
        for i, (xa, xb) in enumerate(zip(cx.filt2(a), cx.filt2(b))):
            if xb > xa:
                return ValidationReport(
                    False,
                    "filtration",
                    f"arrow {a}->{b} raises coordinate {i + 1} by {Fraction(xb - xa, 2)}",
                )
    out: dict[str, set[str]] = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        out[a].add(b)
    for g in sorted(cx.gen_ids):
        square: set[str] = set()
        for m in out[g]:
            square ^= out[m]
        if square:
            return ValidationReport(
                False, "d_squared", f"d^2 of {g} hits {sorted(square)[0]} an odd number of times"
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


def _graded_homology(
    cells: list[tuple[str, int]], out: Mapping[str, set[str]]
) -> dict[int, int]:
    """Homology ranks by Maslov degree of a complex given by arrow sets.

    ``cells`` lists (id, maslov); ``out`` gives the arrow targets of
    each id, assumed to drop maslov by one.
    """
    index = {g: i for i, (g, _) in enumerate(cells)}
    dim: dict[int, int] = {}
    for _, d in cells:
        dim[d] = dim.get(d, 0) + 1
    bnd_rank: dict[int, int] = {}
    by_deg: dict[int, list[int]] = {}
    for g, d in cells:
        row = 0
        for t in out.get(g, ()):  # matrix row of the differential from degree d
            row |= 1 << index[t]
        if row:
            by_deg.setdefault(d, []).append(row)
    for d, rows in by_deg.items():
        bnd_rank[d] = len(echelon(rows))
    hom: dict[int, int] = {}
    for d, n in dim.items():
        h = n - bnd_rank.get(d, 0) - bnd_rank.get(d + 1, 0)
        if h < 0:
            raise ValueError("not a legal filtered complex: a homology rank is negative")
        if h:
            hom[d] = h
    return hom


# ----------------------------------------------------------------------
# Homology and spectral pages

def assoc_graded_homology(cx: FilteredComplex) -> MultiGradedVS:
    """Homology of the filtration-preserving part, one level at a time."""
    by_level: dict[tuple[int, ...], list[tuple[str, int]]] = {}
    for g in cx.gen_ids:
        by_level.setdefault(cx.filt2(g), []).append((g, cx.maslov(g)))
    level_out: dict[tuple[int, ...], dict[str, set[str]]] = {h: {} for h in by_level}
    for a, b in cx.arrows:
        ha, hb = cx.filt2(a), cx.filt2(b)
        if ha == hb:
            level_out[ha].setdefault(a, set()).add(b)
    ranks: dict = {}
    for h2, cells in by_level.items():
        for d, r in _graded_homology(cells, level_out[h2]).items():
            ranks[(d, h2)] = r
    return MultiGradedVS._trusted(cx.nvars, cx.parity, ranks)


def total_homology(cx: FilteredComplex) -> dict[int, int]:
    """Homology ranks by Maslov degree, filtration forgotten."""
    out: dict[str, set[str]] = {}
    for a, b in cx.arrows:
        out.setdefault(a, set()).add(b)
    return _graded_homology([(g, cx.maslov(g)) for g in cx.gen_ids], out)


def _cancel_arrow(
    out: dict[str, set[str]], inc: dict[str, set[str]], x: str, y: str
) -> list[tuple[str, str]]:
    """Gaussian cancellation of the arrow x->y, rerouting around it.

    Every pair (a -> y, x -> b) with a != x, b != y gains a toggled
    arrow a -> b.  Both adjacency maps are updated and x, y removed.
    Returns the arrows the toggling switched on.
    """
    sources = [a for a in inc[y] if a != x]
    targets = [b for b in out[x] if b != y]
    added = []
    for a in sources:
        for b in targets:
            if b in out[a]:
                out[a].discard(b)
                inc[b].discard(a)
            else:
                out[a].add(b)
                inc[b].add(a)
                added.append((a, b))
    for b in out.pop(x):
        inc[b].discard(x)
    for a in inc.pop(y):
        out[a].discard(y)
    for b in out.pop(y, set()):
        inc[b].discard(y)
    for a in inc.pop(x, set()):
        out[a].discard(x)
    return added


def _cancel_all(out: dict[str, set[str]], inc: dict[str, set[str]], eligible) -> None:
    """Cancel eligible arrows until none is left, smallest (source, target) first.

    ``eligible(a, b)`` must depend only on the two endpoints.  Arrows
    wait in a min-heap; one that has since been toggled off or lost an
    endpoint is skipped when it comes up, and every arrow a cancellation
    switches on is pushed if eligible, so each pick is the smallest
    eligible arrow present.  The order decides which generators survive.
    """
    heap = [(a, b) for a in out for b in out[a] if eligible(a, b)]
    heapify(heap)
    while heap:
        a, b = heappop(heap)
        if a in out and b in out[a]:
            for arrow in _cancel_arrow(out, inc, a, b):
                if eligible(*arrow):
                    heappush(heap, arrow)


def _adjacency(cx: FilteredComplex):
    out: dict[str, set[str]] = {g: set() for g in cx.gen_ids}
    inc: dict[str, set[str]] = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        out[a].add(b)
        inc[b].add(a)
    return out, inc


def spectral_pages(cx: FilteredComplex) -> list[MultiGradedVS]:
    """Pages E_1, E_2, ..., E_infinity of the total-drop spectral sequence.

    Arrows are cancelled in rounds ordered by the total filtration drop:
    round r removes every arrow whose coordinates sum to a drop of r,
    recording the surviving generators as a page after each round.  A
    rerouted arrow never drops less than the arrow being cancelled, so
    rounds are exhaustive.  The first page is the associated graded
    homology; the last page, recorded once no arrows remain, is stable.
    """
    require_valid(cx)
    out, inc = _adjacency(cx)
    level = {g: sum(cx.filt2(g)) for g in cx.gen_ids}
    pages: list[MultiGradedVS] = []
    r = 0
    while True:
        _cancel_all(out, inc, lambda a, b: level[a] - level[b] == 2 * r)
        ranks: dict = {}
        for g in out:
            key = (cx.maslov(g), cx.filt2(g))
            ranks[key] = ranks.get(key, 0) + 1
        pages.append(MultiGradedVS._trusted(cx.nvars, cx.parity, ranks))
        if not any(out[a] for a in out):
            break
        r += 1
    return pages


def component_homology(cx: FilteredComplex, i: int) -> FilteredComplex:
    """Cancel every arrow moving only coordinate ``i`` and project it away.

    The result is a complex filtered by the remaining coordinates whose
    generators form the homology with respect to the coordinate-``i``
    part of the differential, carrying the induced differential.  For a
    two-coordinate complex, ``i = 2`` keeps the first coordinate.
    """
    if not 1 <= i <= cx.nvars:
        raise ValueError("coordinate index out of range")
    require_valid(cx)
    out, inc = _adjacency(cx)
    keep = [j for j in range(cx.nvars) if j != i - 1]
    # the level with coordinate i projected away
    proj = {g: h2[: i - 1] + h2[i:] for g, h2 in cx._filt.items()}
    _cancel_all(out, inc, lambda a, b: proj[a] == proj[b])
    gens = [(g, cx.maslov(g), proj[g]) for g in sorted(out)]
    arrows = []
    for a in out:
        for b in out[a]:
            if any(x < y for x, y in zip(proj[a], proj[b])):
                raise AssertionError("cancellation produced an illegal surviving arrow")
            arrows.append((a, b))
    return FilteredComplex(cx.nvars - 1, [cx.parity[j] for j in keep], gens, arrows)


# ----------------------------------------------------------------------
# Shifts, sums, tensor products

def shift(cx: FilteredComplex, h2: Sequence[int]) -> FilteredComplex:
    """Translate every filtration level by the doubled vector ``h2``."""
    h2 = tuple(int(x) for x in h2)
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
    i, j = splice
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
