"""Shared generators for the filtered-complex test suites."""

import random

from hfl.filtered import FilteredComplex
from hfl.summands import Summand


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
    elif kind in ("V", "H"):
        lam = rng.randrange(1, max_lam + 1)
    else:
        lam = rng.randrange(0, max_lam + 1)
    shift2 = tuple(2 * rng.randrange(-2, 3) + p for p in parity)
    return Summand(kind, d, lam, shift2)


def random_summand_sum(rng, max_summands=20, **shape):
    parity = (rng.randrange(2), rng.randrange(2))
    n = rng.randrange(1, max_summands + 1)
    return sorted(random_summand(rng, parity, **shape) for _ in range(n))


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
