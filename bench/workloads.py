"""The four workloads: seeded inputs, the timed call into hfl, and checks.

Each workload is a list of items (one link, one (p, q) pair or one
complex).  ``run`` is the part that is timed: it calls the public
functions of ``hfl`` the way a user of the library or the CLI would.
``check`` runs afterwards, untimed, and compares the output with facts
that do not come from the program: closed forms (Lucas numbers, the
torus-link polynomial), the model-summand list the complex was built
from, and GF(2) ranks computed here.  A failed check raises
``CheckFailed``; the harness counts the item as failed and goes on.

``hfl`` below is a namespace holding the package's modules
(``hfl.linkdiag``, ``hfl.homology`` ...).  Functions are looked up on it
at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import gcd


class CheckFailed(Exception):
    """An output disagrees with the independent expectation."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    key: str
    args: tuple


# ----------------------------------------------------------------------
# Independent facts


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def gf2_rank(rows):
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def total_homology(cx):
    """Homology ranks by Maslov degree, by elimination over GF(2)."""
    index = {g: i for i, g in enumerate(cx.gen_ids)}
    dims = Counter(cx.maslov(g) for g in cx.gen_ids)
    rows = {}
    for a, b in cx.arrows:
        rows.setdefault(cx.maslov(a), {}).setdefault(a, 0)
        rows[cx.maslov(a)][a] |= 1 << index[b]
    rank = {d: gf2_rank(r.values()) for d, r in rows.items()}
    out = {d: n - rank.get(d, 0) - rank.get(d + 1, 0) for d, n in dims.items()}
    return {d: h for d, h in out.items() if h}


def chain_complex_ok(cx):
    """Arrows drop Maslov by one, raise no filtration level, and d^2 = 0."""
    out = {g: set() for g in cx.gen_ids}
    for a, b in cx.arrows:
        if cx.maslov(a) - cx.maslov(b) != 1:
            return False
        if any(y > x for x, y in zip(cx.filt2(a), cx.filt2(b))):
            return False
        out[a].add(b)
    for g in cx.gen_ids:
        square = set()
        for m in out[g]:
            square ^= out[m]
        if square:
            return False
    return True


def symmetric(table):
    """rank(d, h) = rank(d - 2|h|, -h), in doubled filtration units."""
    for (d, h2), r in table.ranks.items():
        if table.ranks.get((d - sum(h2), tuple(-x for x in h2)), 0) != r:
            return False
    return True


# Model summands in their standard position (cells as (name, maslov offset,
# doubled level), arrows as name pairs), the placement hfl.summands uses.
# The last two fields are the number of generators that survive cancelling
# the arrows that move only coordinate 1, and only coordinate 2.


def model(kind, lam):
    if kind == "B":
        cells = [("c00", 0, (0, 0)), ("c10", 1, (2, 0)), ("c01", 1, (0, 2)), ("c11", 2, (2, 2))]
        arrows = [("c11", "c10"), ("c11", "c01"), ("c10", "c00"), ("c01", "c00")]
        return cells, arrows, 0, 0
    if kind in ("V", "H"):
        cells, arrows = [], []
        for j in range(lam):
            x, y = (-2 * j, 2 * j) if kind == "V" else (2 * j, -2 * j)
            low = (x - 2, y) if kind == "V" else (x, y - 2)
            cells += [(f"t{j}", 0, (x, y)), (f"u{j}", -1, low)]
            arrows.append((f"t{j}", f"u{j}"))
            if j:
                arrows.append((f"t{j}", f"u{j - 1}"))
        return (cells, arrows) + ((0, 2) if kind == "V" else (2, 0))
    if kind == "X":
        cells = [(f"l{i}", 0, (2 * i, 2 * (lam - i))) for i in range(lam + 1)]
        cells += [(f"u{i}", 1, (2 * i, 2 * (lam + 1 - i))) for i in range(1, lam + 1)]
        arrows = [(f"u{i}", f"l{j}") for i in range(1, lam + 1) for j in (i - 1, i)]
        return cells, arrows, 1, 1
    cells = [(f"t{i}", 0, (2 * i, 2 * (lam - i))) for i in range(lam + 1)]
    cells += [(f"l{i}", -1, (2 * i, 2 * (lam - 1 - i))) for i in range(lam)]
    arrows = [(f"t{i}", f"l{j}") for i in range(lam + 1) for j in (i - 1, i) if 0 <= j < lam]
    return cells, arrows, 1, 1


def model_size(kind, lam):
    return {"B": 4, "V": 2 * lam, "H": 2 * lam}.get(kind, 2 * lam + 1)


# ----------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    # item key -> start of the failure reason a known program fault gives
    known_faults: dict = {}

    def items(self, hfl, seed):
        raise NotImplementedError

    def run(self, hfl, item):
        raise NotImplementedError

    def check(self, hfl, item, out):
        raise NotImplementedError


class AltTables(Workload):
    """Rank tables of large alternating diagrams (Fox calculus dominates)."""

    name = "alt_tables"
    LADDERS = (
        [("torus", n) for n in range(2, 23, 2)]
        + [("braid3", k) for k in range(2, 13)]
        + [("braid4", k) for k in (1, 2, 3, 4, 5, 6, 7, 9)]
        + [("two_bridge", p, q) for p, q in ((41, 12), (55, 21), (64, 23), (89, 34),
                                             (96, 37), (118, 45), (144, 55), (151, 58),
                                             (178, 69), (233, 89))]
    )

    def items(self, hfl, seed):
        rng = random.Random(seed)
        out = [self.item(hfl, spec, rng.random() < 0.5) for spec in self.LADDERS]
        rng.shuffle(out)
        return out

    @staticmethod
    def item(hfl, spec, mirrored):
        """The diagram of one ladder point, built by ``hfl.linkdiag``."""
        kind, *params = spec
        ld = hfl.linkdiag
        if kind == "torus":
            d, name = ld.corpus(f"torus_2_2n({params[0]})"), f"torus_2_2n({params[0]})"
        elif kind == "braid3":
            d, name = ld.braid_closure([1, -2] * params[0], 3), f"(s1 s2^-1)^{params[0]}"
        elif kind == "braid4":
            d, name = ld.braid_closure([1, -2, 3] * params[0], 4), f"(s1 s2^-1 s3)^{params[0]}"
        else:
            d, name = ld.two_bridge(*params), "b({},{})".format(*params)
        if mirrored:
            d, name = ld.mirror(d), "mirror " + name
        return Item(name, (spec, mirrored, d))

    def run(self, hfl, item):
        d = item.args[2]
        if d.n_components == 1:
            return hfl.homology.hfk_alternating_knot(d)
        return hfl.homology.hfl_alternating(d)

    def check(self, hfl, item, res):
        (kind, *params), mirrored, d = item.args
        k = params[0]
        if kind == "torus":
            l, det = 2, 2 * k
        elif kind == "braid3":
            l, det = (3 if k % 3 == 0 else 1), lucas(2 * k) - 2
        elif kind == "braid4":
            l, det = gcd(k, 4), hfl.alexander.goeritz_determinant(d)
        else:
            l, det = 2 - k % 2, k
        expect(d.n_components == l, f"{d.n_components} components, want {l}")
        table = res if l == 1 else res.table
        want = 2 ** (l - 1) * det
        expect(table.total_rank() == want, f"total rank {table.total_rank()}, want {want}")
        if kind == "torus":
            sigma = (2 * k - 1) * (1 if mirrored else -1)
            expect(res.sigma == sigma, f"sigma {res.sigma}, want {sigma}")
            # ((ST)^n - 1)/(ST - 1), centred, in doubled exponents
            delta = {(2 * i - k + 1,) * 2: 1 for i in range(k)}
            got = res.delta.terms
            expect(got == delta or got == {e: -c for e, c in delta.items()},
                   f"Delta {res.delta}, want +-((ST)^{k} - 1)/(ST - 1)")
        elif kind == "braid3":
            # the closures of (s1 s2^-1)^k are amphichiral: sigma = 0, so a
            # knot's table sits on the diagonal d = s
            if l == 1:
                expect(all(2 * m == h2[0] for m, h2 in table.ranks),
                       "knot table is off the diagonal d = s")
            else:
                expect(res.sigma == 0, f"sigma {res.sigma}, want 0")


def two_bridge_pairs(p_min, p_max):
    """The coprime pairs (p, q), 0 < q < p, with p even in [p_min, p_max]."""
    return [(p, q) for p in range(p_min, p_max + 1, 2) for q in range(1, p) if gcd(p, q) == 1]


class Cfl2TwoBridge(Workload):
    """The two-component summand solver over the two-bridge family."""

    name = "cfl2_two_bridge"
    REFUSED = "refused: the projection is not alternating"
    known_faults = {"b(34,13)": REFUSED, "b(34,21)": REFUSED}

    def items(self, hfl, seed):
        out = [Item(f"b({p},{q})", (p, q)) for p, q in two_bridge_pairs(2, 36)]
        random.Random(seed).shuffle(out)
        return out

    def run(self, hfl, item):
        return hfl.homology.two_component_cfl_from_diagram(hfl.linkdiag.two_bridge(*item.args))

    def check(self, hfl, item, out):
        p = item.args[0]
        cx, summands = out
        # both components of a two-bridge link are unknots: no staircases
        kinds = Counter(s.kind for s in summands)
        expect(not kinds["V"] and not kinds["H"], f"staircase summands {dict(kinds)}")
        expect(len(cx) == 2 * p, f"{len(cx)} generators, want 2p = {2 * p}")
        size = sum(model_size(s.kind, s.lparam) for s in summands)
        expect(size == 2 * p, f"summands hold {size} generators, want {2 * p}")
        th = total_homology(cx)
        expect(th == {0: 1, -1: 1}, f"total homology {th}, want {{0: 1, -1: 1}}")


ORACLE_MISMATCH = "oracle:"


class BigonOracle(Workload):
    """``hfl heegaard P Q``: bigon counting, compared with the Fox/Goeritz table."""

    name = "bigon_oracle"
    known_faults = {f"b({p},{q})": ORACLE_MISMATCH
                    for p, q in ((14, 5), (14, 9), (18, 7), (18, 11), (20, 7), (20, 13))}

    def items(self, hfl, seed):
        # p < 8 adds only tiny items, and starting at 8 puts the median inside
        # the p = 16 items instead of on the step between p = 14 and p = 16
        out = [Item(f"b({p},{q})", (p, q)) for p, q in two_bridge_pairs(8, 20)]
        random.Random(seed).shuffle(out)
        return out

    def run(self, hfl, item):
        p, q = item.args
        diagram = hfl.heegaard.two_bridge_diagram(p, q)
        cx = hfl.heegaard.complex_from_diagram(diagram)
        table = hfl.filtered.assoc_graded_homology(cx)
        admissible = hfl.heegaard.admissibility(diagram)
        alt = hfl.homology.hfl_alternating(hfl.linkdiag.two_bridge(p, q)).table
        return diagram, cx, table, admissible, alt

    def check(self, hfl, item, out):
        p = item.args[0]
        diagram, cx, table, admissible, alt = out
        expect(len(diagram.alpha) == 2 * p, f"{len(diagram.alpha)} intersections, want {2 * p}")
        expect(len(diagram.regions) == 2 * p + 2,
               f"{len(diagram.regions)} regions, want {2 * p + 2}")
        expect(admissible is True, "diagram reported not admissible")
        expect(len(cx) == 2 * p, f"{len(cx)} generators, want {2 * p}")
        expect(chain_complex_ok(cx), "bigon complex is not a filtered chain complex")
        expect(table.total_rank() == 2 * p, f"total rank {table.total_rank()}, want {2 * p}")
        expect(symmetric(table), "bigon table is not symmetric")
        if table != alt:
            cell = min(set(table.ranks.items()) ^ set(alt.ranks.items()))
            raise CheckFailed(f"{ORACLE_MISMATCH} bigon and alternating tables differ at {cell}")


class ComplexAlgebra(Workload):
    """Decomposition and cancellation on large scrambled model-summand sums."""

    name = "complex_algebra"
    N_ITEMS = 40
    # every item sums the same shapes (242 generators); the seed places them
    RECIPE = ([("B", 0)] * 16
              + [(k, lam) for k in ("V", "H", "X") for lam in (1, 2, 3, 4)] * 2
              + [("Y", lam) for lam in (0, 1, 2, 3, 4)] * 2)
    SECOND_TABLE_CELLS = 8

    def items(self, hfl, seed):
        rng = random.Random(seed)
        return [Item(f"sum{i}", self._make(hfl, rng)) for i in range(self.N_ITEMS)]

    def _make(self, hfl, rng):
        summands, gens, out = [], {}, {}
        for n, (kind, lam) in enumerate(self.RECIPE):
            d = rng.randrange(-2, 3)
            shift = (2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4))
            cells, arrows, c1, c2 = model(kind, lam)
            for name, dm, (x, y) in cells:
                gens[f"{n}{name}"] = (d + dm, (x + shift[0], y + shift[1]))
                out[f"{n}{name}"] = set()
            for a, b in arrows:
                out[f"{n}{a}"].add(f"{n}{b}")
            # the model lists put X and Y at the Maslov level of the cells
            # that carry homology; hfl names Y^0 and X^0 alike
            summands.append(("Y" if (kind, lam) == ("X", 0) else kind, d, lam, shift))
        _scramble(gens, out, rng, 2 * len(gens))
        names = list(gens)
        rng.shuffle(names)
        rename = {g: f"g{i}" for i, g in enumerate(names)}
        cx = hfl.filtered.FilteredComplex(
            2, (0, 0),
            [(rename[g], *gens[g]) for g in names],
            [(rename[a], rename[b]) for a in names for b in out[a]],
        )
        cells = {}
        for _ in range(self.SECOND_TABLE_CELLS):
            key = (rng.randrange(-3, 4), (2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)))
            cells[key] = cells.get(key, 0) + rng.randrange(1, 4)
        second = hfl.filtered.MultiGradedVS(2, (0, 0), cells)
        homology = Counter(d for kind, d, _, _ in summands if kind in ("X", "Y"))
        c1 = sum(model(k, lam)[2] for k, lam in self.RECIPE)
        c2 = sum(model(k, lam)[3] for k, lam in self.RECIPE)
        expected = {
            "summands": sorted(summands),
            "gens": len(gens),
            "homology": dict(homology),
            "component": (c1, c2),
            "tensor": len(gens) * sum(cells.values()),
        }
        return cx, second, expected

    def run(self, hfl, item):
        cx, second, _ = item.args
        summands = hfl.summands.decompose(cx)
        pages = hfl.filtered.spectral_pages(cx)
        c1 = hfl.filtered.component_homology(cx, 1)
        c2 = hfl.filtered.component_homology(cx, 2)
        tensor = hfl.filtered.tensor_graded(pages[0], second)
        return summands, pages, c1, c2, tensor

    def check(self, hfl, item, out):
        want = item.args[2]
        summands, pages, c1, c2, tensor = out
        got = sorted((s.kind, s.d, s.lparam, tuple(s.shift2)) for s in summands)
        expect(got == want["summands"], "decompose did not return the seeded summands")
        expect(pages[0].total_rank() == want["gens"],
               f"E1 rank {pages[0].total_rank()}, want {want['gens']}")
        expect(pages[-1].by_maslov() == want["homology"],
               f"last page {pages[-1].by_maslov()}, want {want['homology']}")
        got = (len(c1), len(c2))
        expect(got == want["component"], f"component homology sizes {got}, want {want['component']}")
        expect(tensor.total_rank() == want["tensor"],
               f"tensor rank {tensor.total_rank()}, want {want['tensor']}")


def _scramble(gens, out, rng, moves):
    """Random base changes g := g + h inside classes of equal gradings.

    Such a change keeps every arrow's filtration drop, so the summand
    list is unchanged while the presentation is no longer a direct sum.
    """
    inc = {g: set() for g in gens}
    for a, targets in out.items():
        for b in targets:
            inc[b].add(a)
    classes = {}
    for g, grading in gens.items():
        classes.setdefault(grading, []).append(g)
    mixable = [c for c in classes.values() if len(c) > 1]
    for _ in range(moves if mixable else 0):
        g, h = rng.sample(rng.choice(mixable), 2)
        for b in out[h]:
            inc[b] ^= {g}
        out[g] ^= out[h]
        for a in list(inc[g]):
            out[a] ^= {h}
            inc[h] ^= {a}


WORKLOADS = {w.name: w for w in (AltTables(), Cfl2TwoBridge(), BigonOracle(), ComplexAlgebra())}
