"""Shared generators and small specializations for the test suites."""

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product

from hfl import homology
from hfl.alexander import _delta, _fox_rows, _packed_det
from hfl.filtered import FilteredComplex, MultiGradedVS, _index, echelon
from hfl.homology import ComponentData, table_from_invariants
from hfl.laurent import MultiLaurent, _pack, symmetric_normalize
from hfl.linkdiag import LinkDiagram, _relabel_dense, braid_closure, corpus
from hfl.summands import Summand, _image, _module, _rad2, build_sum, sum_cells


def golden_diagram(name):
    """A corpus link, or ``closure(w)^k``: the closure of the braid word w
    repeated k times, as the golden files name them."""
    m = re.fullmatch(r"closure\(([-\d,]+)\)\^(\d+)", name)
    if m is None:
        return corpus(name)
    word = [int(x) for x in m.group(1).split(",")]
    return braid_closure(word * int(m.group(2)), max(map(abs, word)) + 1)


def relabelled(d, rng):
    """``d`` under a random bijection of its edge labels and a shuffled
    crossing order, and that bijection."""
    labels = sorted({e for x in d.crossings for e in x})
    new = dict(zip(labels, rng.sample(range(1, len(labels) + 1), len(labels))))
    crossings = [tuple(new[e] for e in x) for x in d.crossings]
    rng.shuffle(crossings)
    return LinkDiagram(crossings), new


def fox_minor_delta(d, row, col):
    """Delta of ``d`` from the Fox matrix of ``_fox_rows`` with ``row`` and
    arc column ``col`` deleted, divided by T_i - 1 for the column's
    component i (a knot's minor is Delta itself), normalized as
    ``multivariable_alexander`` normalizes."""
    arc_component, rows, base = _fox_rows(d)
    mat = [{g - (g > col): p for g, p in r.items() if p and g != col}
           for k, r in enumerate(rows) if k != row]
    nvars = d.n_components
    i = arc_component[col]
    divisor = {2 * base ** (nvars - 1 - i): 1, 0: -1} if nvars >= 2 else None
    det = _packed_det(mat, divisor)
    return _delta(det, nvars, base) if det else MultiLaurent(nvars)


def tuple_fox_rows(d):
    """The abelianized Fox matrix of ``d`` with doubled exponent vectors as
    keys: the reference for the packed rows of ``alexander._fox_rows``,
    whose arcs, signs and merging it repeats."""
    starts = {x[2] for x in d.crossings}
    arc, arc_component = {}, []
    for i, cycle in enumerate(d.components):
        k = next(k for k, e in enumerate(cycle) if e in starts)
        for e in cycle[k:] + cycle[:k]:
            if e in starts:
                arc_component.append(i)
            arc[e] = len(arc_component) - 1
    unit = (0,) * d.n_components
    var = [unit[:i] + (2,) + unit[i + 1:] for i in range(d.n_components)]
    rows = []
    for x, sign in zip(d.crossings, d.signs):
        a, b, c = arc[x[0]], arc[x[1]], arc[x[2]]
        t_o, t_u = var[arc_component[b]], var[arc_component[a]]
        if sign == 1:
            cells = {t_o: 1}, {unit: 1, t_u: -1}, {unit: -1}
        else:
            cells = {unit: 1}, {t_u: 1, unit: -1}, {t_o: -1}
        row = {}
        for g, cell in zip((a, b, c), cells):
            total = row.setdefault(g, cell)
            if total is not cell:
                for e, coeff in cell.items():
                    coeff += total.pop(e, 0)
                    if coeff:
                        total[e] = coeff
        rows.append(row)
    return arc_component, rows


def unpack_key(key, nvars, base):
    """The signed digits of a packed key in balanced ``base``, T1 the most
    significant: each digit lies in -(base - 1)/2..(base - 1)/2."""
    half = base // 2
    e = [0] * nvars
    for v in range(nvars - 1, -1, -1):
        key, digit = divmod(key + half, base)
        e[v] = digit - half
    return tuple(e)


def tuple_packed_det(rows, nvars, divisor=None):
    """``alexander._packed_det`` on a matrix of dicts from exponent vector
    (any integers) to coefficient, with a divisor of the same kind.

    Each variable's exponents are shifted by their minimum over the
    matrix (the divisor by its own), so they run over 0..span_v; the
    base is the largest of 4*n*span_v + 1 and 2*dspan_v + 1, the bound
    of ``_packed_det`` and room for the divisor's own digits, the same
    for every variable; the result is shifted back.  Empty entries are
    left out.
    """
    n = len(rows)
    exps = [e for row in rows for p in row.values() for e in p]
    lo = [min((e[v] for e in exps), default=0) for v in range(nvars)]
    span = [max((e[v] for e in exps), default=0) - lo[v] for v in range(nvars)]
    dterms = divisor if divisor is not None else {(0,) * nvars: 1}
    dlo = [min(e[v] for e in dterms) for v in range(nvars)]
    base = max(max(4 * n * span[v], 2 * (max(e[v] for e in dterms) - dlo[v])) + 1
               for v in range(nvars))

    def pack(terms, shift):
        out = {}
        for e, c in terms.items():
            key = 0
            for x, s in zip(e, shift):
                key = key * base + x - s
            out[key] = c
        return out

    a = [{j: pack(p, lo) for j, p in row.items() if p} for row in rows]
    det = raw_det(_packed_det(a, pack(dterms, dlo) if divisor is not None else None),
                  nvars, base)
    shift = [n * lo[v] - dlo[v] for v in range(nvars)]
    return MultiLaurent(nvars, {tuple(x + s for x, s in zip(e, shift)): c
                                for e, c in det.terms.items()})


def raw_det(det, nvars, base):
    """The packed determinant ``det`` of ``alexander._packed_det`` as it
    stands, unpacked unnormalized: every digit of a minor of entries with
    digits from 0 lies in 0..(base - 1)/2, and a key outside that box
    raises ArithmeticError."""
    out = {}
    for key, c in det.items():
        e = unpack_key(key, nvars, base)
        if min(e) < 0 or key != _pack(e, base):
            raise ArithmeticError("determinant outside the packed box")
        out[e] = c
    return MultiLaurent(nvars, out)


def reference_symmetric_normalize(p):
    """``laurent.symmetric_normalize`` on tuple keys, as it ran before it
    packed them: the reference for ``laurent._normalize_packed``."""
    if not p:
        return p
    v = tuple(-a - b for a, b in zip(min(p.terms), max(p.terms)))
    if any(x % 2 for x in v):
        raise ValueError("no symmetric unit multiple exists (odd lattice offset)")
    g = p.shift(tuple(x // 2 for x in v))
    gbar = g.bar()
    if gbar != g and gbar != -g:
        raise ValueError("no symmetric unit multiple exists")
    if g.terms[max(g.terms)] < 0:
        g = -g
    return g


def reference_product(p, q):
    """``p * q`` on tuple keys, as ``MultiLaurent.__mul__`` ran before it
    packed them: the reference for the packed product, its terms in the
    order of first appearance over p's terms, then q's."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiLaurent(p.nvars, out)


def reference_spin_product(nvars):
    """prod_i (T_i^{1/2} - T_i^{-1/2}) by ``reference_product``."""
    out = MultiLaurent(nvars, {(0,) * nvars: 1})
    for i in range(nvars):
        step = tuple(int(j == i) for j in range(nvars))
        out = reference_product(out, MultiLaurent(nvars, {step: 1, tuple(-x for x in step): -1}))
    return out


def substitute_one(p, i):
    """Set T_i = 1 in the MultiLaurent ``p``: one variable fewer."""
    assert p.nvars >= 2 and 1 <= i <= p.nvars
    out = {}
    for e, c in p.terms.items():
        assert e[i - 1] % 2 == 0, "a half-integer exponent of T_i has no value at 1"
        f = e[: i - 1] + e[i:]
        out[f] = out.get(f, 0) + c
    return MultiLaurent(p.nvars - 1, out)


def euler_number(vs):
    """Euler characteristic of the MultiGradedVS ``vs``, summed over all gradings."""
    return sum(r if d % 2 == 0 else -r for (d, _), r in vs.ranks.items())


def change_basis(cx, moves):
    """Apply base changes g := g + h; h must sit at the same Maslov level
    with filtration dominated by g's, which keeps the complex legal."""
    out = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        out[a].add(b)
    for g, h in moves:
        assert g != h and cx.maslov(g) == cx.maslov(h)
        assert all(p <= q for p, q in zip(cx.filt2(h), cx.filt2(g)))
        out[g] ^= out[h]
        for a in cx.gen_ids:
            if g in out[a]:
                out[a] ^= {h}
    gens = [(g, cx.maslov(g), cx.filt2(g)) for g in cx.gen_ids]
    arrows = sorted((a, b) for a, targets in out.items() for b in targets)
    return FilteredComplex(cx.nvars, cx.parity, gens, arrows)


def random_moves(cx, rng, rounds, same_class):
    """Sample legal base-change moves; ``same_class`` restricts to pairs
    with equal gradings (the mixing that keeps summand structure visible)."""
    ids = list(cx.gen_ids)
    moves = []
    for _ in range(rounds):
        g, h = rng.choice(ids), rng.choice(ids)
        if g == h or cx.maslov(g) != cx.maslov(h):
            continue
        if same_class:
            if cx.filt2(g) == cx.filt2(h):
                moves.append((g, h))
        elif all(p <= q for p, q in zip(cx.filt2(h), cx.filt2(g))):
            moves.append((g, h))
    return moves


def scramble(cx, rng, same_class=True):
    return change_basis(cx, random_moves(cx, rng, 3 * len(cx), same_class))


def random_summand(rng, parity, kinds="BVHXY", max_lam=3, max_d=3):
    """A random summand of one of ``kinds``, with size up to ``max_lam``,
    Maslov offset in [-max_d, max_d] and each shift coordinate in
    {-2, ..., 2}."""
    kind = rng.choice(kinds)
    d = rng.randrange(-max_d, max_d + 1)
    if kind == "B":
        lam = 0
    elif kind in ("V", "H", "E"):
        lam = rng.randrange(1, max_lam + 1)
    else:
        lam = rng.randrange(0, max_lam + 1)
    shift2 = tuple(2 * rng.randrange(-2, 3) + p for p in parity)
    return Summand(kind, d, lam, shift2)


def random_summand_sum(rng, max_summands=20, nvars=2, **shape):
    parity = tuple(rng.randrange(2) for _ in range(nvars))
    n = rng.randrange(1, max_summands + 1)
    return sorted(random_summand(rng, parity, **shape) for _ in range(n))


# The shapes of the benchmark's complex_algebra sums: 50 summands, 242
# generators, on parity (0, 0)
WORKLOAD_RECIPE = ([("B", 0)] * 16
                   + [(k, lam) for k in "VHX" for lam in (1, 2, 3, 4)] * 2
                   + [("Y", lam) for lam in range(5)] * 2)


def workload_shaped_sum(rng):
    """The summands of ``WORKLOAD_RECIPE``, each at a Maslov offset in
    [-2, 2] and a shift with coordinates in {-6, -4, ..., 6}, as the
    benchmark places them."""
    return sorted(
        Summand(kind, rng.randrange(-2, 3), lam, (2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)))
        for kind, lam in WORKLOAD_RECIPE
    )


def class_scramble(cx, rng, moves):
    """``cx`` after ``moves`` base changes g := g + h, each between two
    generators of one class (equal Maslov grading and level) drawn as the
    benchmark draws them: a class with two or more generators, then two
    of its generators."""
    classes = {}
    for g, d, h2 in cx.gens():
        classes.setdefault((d, h2), []).append(g)
    mixable = [c for c in classes.values() if len(c) > 1]
    picks = [tuple(rng.sample(rng.choice(mixable), 2)) for _ in range(moves if mixable else 0)]
    return change_basis(cx, picks)


def tile_squares_by_min_scan(cells):
    """Tile a cell multiset by acyclic squares, or refuse, as
    ``homology._tile_squares`` does: the reference that scans every
    remaining cell for the smallest, by (level, Maslov), once per square."""
    rest = Counter(cells)
    out = []
    while rest:
        d0, (x, y) = min(rest, key=lambda cell: (cell[1], cell[0]))
        square = Summand("B", d0, 0, (x, y))
        for cell in sum_cells([square]):
            if rest.get(cell, 0) <= 0:
                raise ValueError(
                    "constraints unsatisfiable: the squares cannot tile the cell at "
                    f"d={d0}, h2={(x, y)} (its square lacks d={cell[0]}, h2={cell[1]})"
                )
            rest[cell] -= 1
            if not rest[cell]:
                del rest[cell]
        out.append(square)
    return out


def random_filtered_complex(rng, nvars, max_gens=40):
    """A legal complex: a random partial pairing differential followed by
    random dominated base changes."""
    parity = tuple(rng.randrange(2) for _ in range(nvars))
    n = rng.randrange(2, max_gens + 1)
    gens = []
    for i in range(n):
        d = rng.randrange(-4, 5)
        h2 = tuple(2 * rng.randrange(-3, 4) + p for p in parity)
        gens.append((f"g{i}", d, h2))
    arrows = []
    used = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        if i in used:
            continue
        cands = [
            j
            for j in order
            if j not in used
            and j != i
            and gens[i][1] == gens[j][1] + 1
            and all(a >= b for a, b in zip(gens[i][2], gens[j][2]))
        ]
        if cands and rng.random() < 0.7:
            j = rng.choice(cands)
            arrows.append((gens[i][0], gens[j][0]))
            used.add(i)
            used.add(j)
    cx = FilteredComplex(nvars, parity, gens, arrows)
    return change_basis(cx, random_moves(cx, rng, 2 * n, same_class=False))


def shuffled_ids(cx, rng):
    """``cx`` with its generators listed in a random order and renamed
    ``g0``, ``g1``, ... in a second random order, so that insertion order,
    numeric order and string order (``g10`` before ``g9``) all differ."""
    ids = list(cx.gen_ids)
    rng.shuffle(ids)
    rename = dict(zip(ids, (f"g{i}" for i in rng.sample(range(len(ids)), len(ids)))))
    gens = [(rename[g], cx.maslov(g), cx.filt2(g)) for g in ids]
    arrows = [(rename[a], rename[b]) for a, b in cx.arrows]
    return FilteredComplex(cx.nvars, cx.parity, gens, arrows)


# The diagram tracer on (crossing, slot) tuples, as ``hfl.linkdiag`` ran it
# before it numbered the places: the reference for the attributes, the
# refusals and the positional orientation of the one walk per strand.

_IN, _OUT = 0, 1


def _tuple_across(crossings, occ, place):
    """The other place of the edge at ``place``."""
    a, b = occ[crossings[place[0]][place[1]]]
    return b if a == place else a


def _tuple_orient(crossings, occ, dirs, seeds):
    """Propagate IN/OUT directions from ``seeds``, (place, direction) pairs."""
    stack = list(seeds)
    while stack:
        place, d = stack.pop()
        if place in dirs:
            if dirs[place] != d:
                raise ValueError("inconsistent strand orientations (trace does not close)")
            continue
        dirs[place] = d
        stack.append((_tuple_across(crossings, occ, place), 1 - d))
        stack.append(((place[0], (place[1] + 2) % 4), 1 - d))


def _tuple_incidences(crossings):
    occ = {}
    for ci, x in enumerate(crossings):
        for k, e in enumerate(x):
            occ.setdefault(e, []).append((ci, k))
    for e, places in occ.items():
        if len(places) != 2:
            raise ValueError("edge %d used %d times (need exactly 2)" % (e, len(places)))
    return occ


class TupleDiagram:
    """The attributes ``LinkDiagram`` traces, from tuple places and an
    IN/OUT stack search; takes crossings that are already int 4-tuples."""

    def __init__(self, crossings):
        xs = self.crossings = [tuple(x) for x in crossings]
        if any(len(x) != 4 for x in xs):
            raise ValueError("crossing does not have four edges")
        if any(e < 1 for x in xs for e in x):
            raise ValueError("edge labels must be positive")
        occ = _tuple_incidences(xs)
        dirs = {}
        _tuple_orient(xs, occ, dirs, [((ci, 0), _IN) for ci in range(len(xs))])
        if len(dirs) != 4 * len(xs):
            raise ValueError(
                "orientation of an all-over component is not determined; "
                "give a diagram where every component passes under somewhere"
            )
        self.head = head = {e: a if dirs[a] == _IN else b for e, (a, b) in occ.items()}
        self.signs = [1 if head[x[3]] == (ci, 3) else -1 for ci, x in enumerate(xs)]
        self.components, self.edge_comp = [], {}
        for e in sorted(occ):
            if e in self.edge_comp:
                continue
            cyc = []
            while e not in self.edge_comp:
                self.edge_comp[e] = len(self.components)
                cyc.append(e)
                ci, k = head[e]
                e = xs[ci][(k + 2) % 4]
            self.components.append(cyc)
        if not xs:
            self.components = [[]]
        adj = [[] for _ in xs]
        for (a, _), (b, _) in occ.values():
            adj[a].append(b)
            adj[b].append(a)
        seen, pieces = set(), 0
        for start in range(len(xs)):
            if start not in seen:
                pieces += 1
                seen.add(start)
                stack = [start]
                while stack:
                    for nb in adj[stack.pop()]:
                        if nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
        self.connected = pieces <= 1
        faces, seen = [], set()
        for ci in range(len(xs)):
            for k in range(4):
                cur, face = (ci, k), []
                while cur not in seen:
                    seen.add(cur)
                    face.append(cur)
                    cur = _tuple_across(xs, occ, (cur[0], (cur[1] + 1) % 4))
                if face:
                    faces.append(face)
        if xs and len(faces) != len(xs) + 2 * pieces:
            raise ValueError(
                "face count %d != crossings + 2 per connected piece; the "
                "counterclockwise slot convention is violated" % len(faces)
            )
        self.faces = (faces if xs else [[], []]) if self.connected else None

    def is_alternating(self):
        for cyc in self.components:
            passes = [self.head[e][1] == 0 for e in cyc]
            if any(passes[i] == passes[(i + 1) % len(passes)] for i in range(len(passes))):
                return False
        return True


def tuple_positional(crossings):
    """``linkdiag._positional`` on tuple places."""
    occ = _tuple_incidences(crossings)
    dirs = {}
    for e in sorted(occ):
        if occ[e][0] not in dirs:
            _tuple_orient(crossings, occ, dirs, [(occ[e][0], _IN if dirs else _OUT)])
    return _relabel_dense([x if dirs[(ci, 0)] == _IN else (x[2], x[3], x[0], x[1])
                           for ci, x in enumerate(crossings)])


# The Gaussian cancellation on string ids, as ``hfl.filtered`` ran it
# before it numbered the generators: the reference that pins the order
# in which the position-keyed ``_cancel_all`` picks its arrows.

def reference_cancel_arrow(out, inc, x, y):
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


def reference_cancel_all(out, inc, eligible, log=None):
    """Cancel eligible arrows, smallest (source id, target id) first.

    ``log``, a list when given, gets (a, b, overtakes) for each pick a -> b:
    ``overtakes`` counts the eligible arrows the pick switches on that
    sort before a live arrow already waiting, so that a first-in
    first-out queue would take them in another order than the heap.
    """
    heap = [(a, b) for a in out for b in out[a] if eligible(a, b)]
    heapify(heap)
    while heap:
        a, b = heappop(heap)
        if a in out and b in out[a]:
            overtakes = 0
            for arrow in reference_cancel_arrow(out, inc, a, b):
                if eligible(*arrow):
                    if log is not None:
                        overtakes += any(arrow < w and w[0] in out and w[1] in out[w[0]]
                                         for w in heap)
                    heappush(heap, arrow)
            if log is not None:
                log.append((a, b, overtakes))


def reference_adjacency(cx):
    out = {g: set() for g in cx.gen_ids}
    inc = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        out[a].add(b)
        inc[b].add(a)
    return out, inc


def reference_spectral_pages(cx, log=None):
    out, inc = reference_adjacency(cx)
    level = {g: sum(cx.filt2(g)) for g in cx.gen_ids}
    pages = []
    r = 0
    while True:
        reference_cancel_all(out, inc, lambda a, b: level[a] - level[b] == 2 * r, log)
        ranks = Counter((cx.maslov(g), cx.filt2(g)) for g in out)
        pages.append(MultiGradedVS(cx.nvars, cx.parity, ranks))
        if not any(out[a] for a in out):
            return pages
        r += 1


def reference_component_homology(cx, i, log=None):
    out, inc = reference_adjacency(cx)
    proj = {g: h2[: i - 1] + h2[i:] for g, h2 in cx._filt.items()}
    reference_cancel_all(out, inc, lambda a, b: proj[a] == proj[b], log)
    gens = [(g, cx.maslov(g), proj[g]) for g in sorted(out)]
    arrows = [(a, b) for a in out for b in out[a]]
    return FilteredComplex(cx.nvars - 1, cx.parity[: i - 1] + cx.parity[i:], gens, arrows)


# The chain checks and both homologies as ``hfl.filtered`` ran them before
# each complex kept one numbering: the checks on string ids, total homology
# on a numbering of its own, and associated graded homology numbering the
# generators of each level apart, all through the Maslov-only reduction.
# The references for ``validate``, ``total_homology`` and
# ``assoc_graded_homology``.

def reference_chain_report(cx):
    """(kind, detail) of the first chain-condition violation, or None."""
    for a, b in sorted(cx.arrows):
        da, db = cx.maslov(a), cx.maslov(b)
        if da - db != 1:
            return "arrow_grading", f"arrow {a}->{b} drops maslov by {da - db}, not 1"
        for i, (xa, xb) in enumerate(zip(cx.filt2(a), cx.filt2(b))):
            if xb > xa:
                return "filtration", (
                    f"arrow {a}->{b} raises coordinate {i + 1} by {Fraction(xb - xa, 2)}"
                )
    out, _ = reference_adjacency(cx)
    for a in sorted(out):
        square = set()
        for m in out[a]:
            square ^= out[m]
        if square:
            return "d_squared", f"d^2 of {a} hits {min(square)} an odd number of times"
    return None


def reference_graded_homology(maslovs, out):
    """Homology ranks by Maslov degree; generator p has Maslov grading
    ``maslovs[p]`` and arrows to the positions ``out[p]``."""
    dim = Counter(maslovs)
    bnd_rank = {}
    by_deg = {}
    for d, targets in zip(maslovs, out):
        row = 0
        for t in targets:
            row |= 1 << t
        if row:
            by_deg.setdefault(d, []).append(row)
    for d, rows in by_deg.items():
        bnd_rank[d] = len(echelon(rows))
    hom = {}
    for d, n in dim.items():
        h = n - bnd_rank.get(d, 0) - bnd_rank.get(d + 1, 0)
        if h < 0:
            raise ValueError("not a legal filtered complex: a homology rank is negative")
        if h:
            hom[d] = h
    return hom


def reference_assoc_graded_homology(cx):
    by_level = {}
    position = {}
    for g, d, h2 in cx.gens():
        maslovs, out = by_level.setdefault(h2, ([], []))
        position[g] = len(maslovs)
        maslovs.append(d)
        out.append([])
    for a, b in cx.arrows:
        ha = cx.filt2(a)
        if ha == cx.filt2(b):
            by_level[ha][1][position[a]].append(position[b])
    ranks = {}
    for h2, (maslovs, out) in by_level.items():
        for d, r in reference_graded_homology(maslovs, out).items():
            ranks[(d, h2)] = r
    return MultiGradedVS(cx.nvars, cx.parity, ranks)


def reference_total_homology(cx):
    ids = sorted(cx.gen_ids)
    position = {g: p for p, g in enumerate(ids)}
    out = [[] for _ in ids]
    for a, b in cx.arrows:
        out[position[a]].append(position[b])
    hom = reference_graded_homology([cx.maslov(g) for g in ids], out)
    # degrees in the order they first occur among the generators
    degrees = dict.fromkeys(cx.maslov(g) for g in cx.gen_ids)
    return {d: hom[d] for d in degrees if d in hom}


# Phase two of ``hfl.summands.decompose`` as it ran before the sweep kept
# its absorb order by construction: vertices as a dataclass, the incoming
# images gathered per class, and the live intervals sorted into the absorb
# order before every step.  The reference for ``_string_decomposition``.

@dataclass
class Vertex:
    pos: int
    is_top: bool
    cls: tuple
    space: list[int]
    rad2: dict[int, int]


def _reference_target(c, axis):
    m, (a, b) = c
    return (m - 1, (a - 2, b) if axis == 0 else (a, b - 2))


def reference_string_decomposition(maps, rad2):
    incoming = {c: [] for c in maps}
    for c, axes in maps.items():
        for axis, columns in enumerate(axes):
            if any(columns):
                incoming[_reference_target(c, axis)] += columns
    paths = {}
    for c, (xs, _) in maps.items():
        (m, h2) = c
        deep = rad2.get(c, {})
        rad = echelon(incoming[c], dict(deep))
        top = [1 << i for i in range(len(xs)) if i not in rad]
        bottom = list(rad.values())[len(deep):]
        if top:
            key, pos = (m, h2[0] + h2[1]), h2[0]
            paths.setdefault(key, {})[pos] = Vertex(pos, True, c, top, {})
        if bottom:
            key, pos = (m + 1, h2[0] + h2[1] + 2), h2[0] + 1
            paths.setdefault(key, {})[pos] = Vertex(pos, False, c, bottom, deep)
    out = []
    for (d_top, ssum), verts in paths.items():
        runs = []
        for p in sorted(verts):
            if runs and runs[-1][-1].pos == p - 1:
                runs[-1].append(verts[p])
            else:
                runs.append([verts[p]])
        for run in runs:
            out.extend(_reference_sweep(run, d_top, ssum, maps))
    return out


def _reference_sweep(run, d_top, ssum, maps):
    found = []
    live = [(0, v) for v in run[0].space]
    for k in range(len(run) - 1):
        # intervals starting at a top, latest start first, then intervals
        # starting at a bottom, earliest start first
        live.sort(key=lambda iv: (0, -iv[0]) if run[iv[0]].is_top else (1, iv[0]))
        nxt = []
        if run[k].is_top:
            ys = maps[run[k].cls][1]
            piv = dict(run[k + 1].rad2)
            for start, v in live:
                rank = len(piv)
                echelon([_image(ys, v)], piv)
                if len(piv) > rank:
                    nxt.append((start, piv[next(reversed(piv))]))
                else:
                    found.append(_reference_interval_summand(run, start, k, d_top, ssum))
            rank = len(piv)
            echelon(run[k + 1].space, piv)
            nxt += [(k + 1, b) for b in list(piv.values())[rank:]]
        else:
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
                    found.append(_reference_interval_summand(run, start, k, d_top, ssum))
                else:
                    nxt.append((start, row & ((1 << width) - 1)))
            nxt += [(k + 1, row) for lead, row in piv.items() if lead < width]
        live = nxt
    found += [_reference_interval_summand(run, start, len(run) - 1, d_top, ssum)
              for start, _ in live]
    return found


def _reference_interval_summand(run, l, r, d_top, ssum):
    a, b = run[l], run[r]
    width = r - l
    if a.is_top and b.is_top:
        lam = width // 2
        return ("Y", d_top, lam, (a.pos, ssum - a.pos - 2 * lam))
    if not a.is_top and not b.is_top:
        lam = width // 2
        first = a.pos - 1
        return ("X" if lam else "Y", d_top - 1, lam, (first, ssum - 2 - first - 2 * lam))
    lam = (width + 1) // 2
    if a.is_top:
        return ("H", d_top, lam, (a.pos, ssum - a.pos))
    return ("V", d_top, lam, (b.pos, ssum - b.pos))


def reference_decompose(cx):
    """``decompose`` with the reference phase two: the same index, module
    maps and squares, the sorting sweep, and each summand built through
    the public ``Summand`` constructor.  No self-check."""
    maps = _module(_index(cx))
    rad2 = _rad2(maps)
    squares = [("B", m, 0, h2) for (m, h2), basis in rad2.items() for _ in basis]
    strings = Counter(reference_string_decomposition(maps, rad2))
    strings.subtract(("X", m + 1, 1, h2) for _, m, _, h2 in squares)
    return [Summand(*t) for t in sorted(squares + list(strings.elements()))]


# ----------------------------------------------------------------------
# The two-component solver as it ran before it carried plain tuples: every
# summand made through the public ``Summand`` constructor, the cells taken
# off a Counter of the table through ``sum_cells`` and the squares laid one
# at a time.  The reference for ``homology.two_component_cfl``.

def reference_two_component_cfl(delta, sigma, n, comps):
    if delta.nvars != 2:
        raise ValueError("need a two-variable Alexander polynomial")
    comps = tuple(comps)
    if len(comps) != 2 or not all(isinstance(x, ComponentData) for x in comps):
        raise ValueError("need ComponentData for exactly two components")
    if delta:
        delta = symmetric_normalize(delta)
    try:
        target = table_from_invariants(delta, sigma, (n, n))
    except ValueError as e:
        raise ValueError(f"constraints unsatisfiable: {e}") from None
    c = (1 - sigma) // 2
    forced = []
    for kind, data in zip("VH", comps):
        for lam, dk, s2 in data.pairs:
            for m in (dk, dk - 1):
                shift = (s2 + n, 2 * m - s2 - n + 2 * c)
                forced.append(Summand(kind, m, lam, shift if kind == "V" else shift[::-1]))
    rest = Counter(target.ranks)
    _reference_take_cells(rest, forced, "the component pairs do not fit")
    lf = comps[0].tau + comps[1].tau + n + (sigma - 1) // 2
    family, k = ("Y" if lf >= 0 else "X"), abs(lf)
    p2, q2 = 2 * comps[0].tau + n, 2 * comps[1].tau + n
    if family == "Y":
        central = [Summand("Y", 0, k, (p2 - 2 * k, q2 - 2 * k)),
                   Summand("Y", -1, k + 1, (p2 - 2 * k - 2, q2 - 2 * k - 2))]
    else:
        central = [Summand("X", 0, k, (p2, q2)), Summand("X", -1, k - 1, (p2, q2))]
    _reference_take_cells(rest, central, f"the central {family}-pair at width {k} does not fit")
    summands = sorted(forced + central + _reference_tile_squares(+rest))
    cx = build_sum(summands)
    failed = homology._failed_check(cx, summands, target, comps, n)
    if failed:
        raise ValueError(f"constraints unsatisfiable: {failed}")
    return cx, summands


def _reference_take_cells(rest, summands, failure):
    rest.subtract(sum_cells(summands))
    over = sorted(cell for cell, r in rest.items() if r < 0)
    if over:
        d, h2 = over[0]
        raise ValueError(
            f"constraints unsatisfiable: {failure} the rank table "
            f"(the table has too few generators at d={d}, h2={h2})"
        )


def _reference_tile_squares(cells):
    rest = Counter(cells)
    out = []
    for low in sorted(rest, key=lambda cell: (cell[1], cell[0])):
        d0, (x, y) = low
        corners = ((d0 + 1, (x + 2, y)), (d0 + 1, (x, y + 2)), (d0 + 2, (x + 2, y + 2)))
        for _ in range(rest[low]):
            for d, h2 in corners:
                if rest[(d, h2)] <= 0:
                    raise ValueError(
                        "constraints unsatisfiable: the squares cannot tile the cell at "
                        f"d={d0}, h2={(x, y)} (its square lacks d={d}, h2={h2})"
                    )
                rest[(d, h2)] -= 1
            out.append(Summand("B", d0, 0, (x, y)))
    return out


def solve(d, coeffs):
    """Multiplicities of the sphere diagram ``d`` with the given jump
    across each edge (left minus right), anchored at 0 on ``regions[0]``."""
    m = {d.regions[0]: 0}
    for r, parent, eid, sgn in d._tree:
        m[r] = m[parent] + sgn * coeffs.get(eid, 0)
    for eid, (left, right) in d.edges.items():
        if m[left] - m[right] != coeffs.get(eid, 0):
            raise ValueError("boundary data is not the boundary of a 2-chain")
    return m


def arc(d, curve, g, h, forward):
    """Signed edge coefficients of the walk along curve ``"a"`` (alpha) or
    ``"b"`` (beta) from g to h: +1 per edge crossed forward, -1 backward."""
    points = d.alpha if curve == "a" else d.beta
    n = len(points)
    pos, k = points.index(g), points.index(h)
    step = 1 if forward else -1
    coeffs = {}
    while pos != k:
        coeffs[(curve, pos if forward else (pos - 1) % n)] = step
        pos = (pos + step) % n
    return coeffs


def connect(d, g, h, fa=True, fb=True):
    """Some 2-chain whose boundary runs from g to h on alpha, back on beta."""
    coeffs = Counter(arc(d, "a", g, h, fa))
    coeffs.update(arc(d, "b", h, g, fb))
    return solve(d, coeffs)


class ListBigons:
    """Bigon counts of a sphere diagram from domains kept as lists.

    Each domain is a list with one multiplicity per region, solved with
    ``connect`` and ``solve`` above, and each candidate is scanned entry by
    entry: the reference for the packed count of ``SphereDiagram.bigons``.
    """

    def __init__(self, d):
        self.at = {r: k for k, r in enumerate(d.regions)}
        counts = Counter(r for quads in d.corners.values() for r in quads)
        self.weight = [4 - counts[r] for r in d.regions]
        self.corners = {g: tuple(self.at[r] for r in quads) for g, quads in d.corners.items()}
        self.pos_a = {g: k for k, g in enumerate(d.alpha)}
        self.pos_b = {g: k for k, g in enumerate(d.beta)}
        base = d.alpha[0]

        def vector(m):
            return [m[r] for r in d.regions]

        self.phi = {g: vector(connect(d, base, g, True, self.pos_b[g] < self.pos_b[base]))
                    for g in d.alpha}
        self.whole_a = vector(solve(d, {e: 1 for e in d.edges if e[0] == "a"}))
        self.whole_b = vector(solve(d, {e: 1 for e in d.edges if e[0] == "b"}))

    def corner_sum(self, m, x):
        return sum(m[r] for r in self.corners[x])

    def four_index(self, m, g, h):
        return (sum(v * w for v, w in zip(m, self.weight))
                + self.corner_sum(m, g) + self.corner_sum(m, h))

    def count(self, g, h, avoid):
        """Embedded bigons from g to h missing ``avoid``, as ``SphereDiagram.bigons``."""
        i0 = int(self.pos_a[g] > self.pos_a[h])
        j0 = int(self.pos_b[h] > self.pos_b[g])
        phi_g, phi_h = self.phi[g], self.phi[h]
        skip = [self.at[r] for r in avoid]
        cs = self.corner_sum
        at_g, a_g, b_g = cs(phi_h, g) - cs(phi_g, g), cs(self.whole_a, g), cs(self.whole_b, g)
        at_h, a_h, b_h = cs(phi_h, h) - cs(phi_g, h), cs(self.whole_a, h), cs(self.whole_b, h)
        count = 0
        for i, j in product((i0 - 1, i0), (j0 - 1, j0)):
            # a bigon has corner sum 4 lo + 1 at both ends, lo its minimum
            c = at_g + i * a_g + j * b_g
            if c % 4 != 1 or c != at_h + i * a_h + j * b_h:
                continue
            lo = c // 4
            m = [y - x + i * u + j * v
                 for x, y, u, v in zip(phi_g, phi_h, self.whole_a, self.whole_b)]
            if min(m) != lo or max(m) != lo + 1 or any(m[r] != lo for r in skip):
                continue
            if self.four_index([v - lo for v in m], g, h) != 4:
                raise ValueError("an embedded bigon must have index 1")
            count += 1
        return count
