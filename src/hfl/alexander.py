"""Classical invariants of an oriented link diagram.

Two quantities are computed here, both in exact arithmetic:

* the symmetrized multivariable Alexander polynomial, via Fox calculus
  on the Wirtinger presentation of the diagram's knot group, and
* the signature of the oriented link, via the Gordon-Litherland form of
  a checkerboard surface.

Both are diagram invariants of the underlying oriented link, which the
test suite exercises by computing them from independently constructed
diagrams of the same link.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .laurent import MultiLaurent, monomial, one, symmetric_normalize, zero
from .linkdiag import LinkDiagram

__all__ = [
    "WirtingerPresentation",
    "AlexanderResult",
    "multivariable_alexander",
    "signature",
    "goeritz_determinant",
]


# ----------------------------------------------------------------------
# Wirtinger presentation

class WirtingerPresentation:
    """Arc generators and crossing relators of a link group.

    Arcs are maximal over-strands: edges of the diagram merged across
    every crossing where they pass over.  Each crossing contributes one
    relator expressing the outgoing under-arc as a conjugate of the
    incoming one by the over-arc.

    Attributes:
        n_generators: number of arcs.
        relators: one word per crossing, each a list of
            (generator index, +1 or -1) letters.
        generator_component: component index of each arc.
        arc_of_edge: map edge label -> generator index.
    """

    def __init__(self, d: LinkDiagram):
        if not d.is_connected():
            raise ValueError("Wirtinger presentation needs a connected projection")
        parent = {e: e for e in d._occ}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for x in d.crossings:
            ra, rb = find(x[1]), find(x[3])
            if ra != rb:
                parent[ra] = rb
        reps = sorted({find(e) for e in d._occ})
        rep_index = {r: i for i, r in enumerate(reps)}
        self.arc_of_edge = {e: rep_index[find(e)] for e in d._occ}
        self.n_generators = len(reps)
        self.generator_component = [d.edge_comp[r] for r in reps]
        self.relators = []
        for ci, x in enumerate(d.crossings):
            a = self.arc_of_edge[x[0]]
            b = self.arc_of_edge[x[1]]
            c = self.arc_of_edge[x[2]]
            if d.signs[ci] == 1:
                word = [(b, 1), (a, 1), (b, -1), (c, -1)]
            else:
                word = [(b, -1), (a, 1), (b, 1), (c, -1)]
            self.relators.append(word)
        if d.crossings:
            assert self.n_generators == len(d.crossings)
        for word in self.relators:
            net = [0] * (max(self.generator_component, default=0) + 1)
            for g, s in word:
                net[self.generator_component[g]] += s
            assert not any(net), "relator does not abelianize to the identity"

    def fox_matrix(self, nvars):
        """Abelianized Fox derivative matrix, one row per relator.

        Entry (r, g) is the image of the Fox derivative d(relator_r)/d(gen_g)
        under the abelianization sending a generator on component i to T_i.
        Rows coming from negative crossings are scaled by the unit T_o,
        which changes the determinant by a unit only.
        """
        rows = []
        for word in self.relators:
            row = {}

            def add(g, p):
                row[g] = row.get(g, zero(nvars)) + p

            b, a, c = word[0][0], word[1][0], word[3][0]
            positive = word[0][1] == 1
            t_o = _var(nvars, self.generator_component[b])
            t_u = _var(nvars, self.generator_component[a])
            if positive:
                add(a, t_o)
                add(b, one(nvars) - t_u)
                add(c, -one(nvars))
            else:
                add(a, one(nvars))
                add(b, t_u - one(nvars))
                add(c, -t_o)
            rows.append(row)
        return rows


@dataclass
class AlexanderResult:
    """Symmetrized Alexander polynomial plus the conventions that produced it.

    ``conventions`` records the deleted relator row, the deleted
    generator column, that generator's component, and the Torres factor
    divided out (None for knots).
    """

    delta: MultiLaurent
    conventions: dict


def multivariable_alexander(d: LinkDiagram) -> AlexanderResult:
    """Alexander polynomial of the oriented link presented by ``d``.

    The Fox matrix of the Wirtinger presentation has one redundant row
    and satisfies the column relation sum_g M[.,g]*(T_comp(g)-1) = 0, so
    deleting one row and the column of a generator on component i leaves
    a square matrix whose determinant is (T_i-1)*Delta up to units when
    the link has more than one component, and Delta itself for a knot.
    The determinant is computed fraction-free and the (T_i-1) division
    is performed exactly; a nonzero remainder is an internal error, not
    a possible outcome.  The result is normalized to its bar-symmetric
    representative with positive leading coefficient.
    """
    nvars = d.n_components
    if not d.crossings:
        return AlexanderResult(one(1), {
            "deleted_row": None, "deleted_generator": None,
            "generator_component": None, "torres_factor": None,
        })
    w = WirtingerPresentation(d)
    rows = w.fox_matrix(nvars)
    del_col = min(g for g in range(w.n_generators) if w.generator_component[g] == 0)
    del_row = 0
    n = w.n_generators
    cols = [g for g in range(n) if g != del_col]
    empty = zero(nvars)
    mat = [[rows[r].get(g, empty) for g in cols]
           for r in range(n) if r != del_row]
    torres = _var(nvars, 0) - one(nvars) if nvars >= 2 else None
    det = _packed_det(mat, nvars, torres)
    conv = {
        "deleted_row": del_row,
        "deleted_generator": del_col,
        "generator_component": 0,
        "torres_factor": None if torres is None else "T1-1",
    }
    if det:
        det = symmetric_normalize(det)
    return AlexanderResult(det, conv)


def _var(nvars, i):
    """The monomial T_{i+1} (doubled exponent 2 in slot i)."""
    return monomial(nvars, tuple(2 if j == i else 0 for j in range(nvars)))


def _packed_det(mat, nvars, divisor=None):
    """Determinant of a square MultiLaurent matrix, divided exactly by ``divisor``.

    Fraction-free Bareiss elimination with the fewest-terms pivot, run on
    packed exponent keys.  Each variable's exponents are shifted by their
    minimum over the matrix (the divisor by its own minimum), so they run
    over 0..span_v, span_v being their spread over the whole matrix.  An
    exponent vector is packed into one int, T1 the most significant digit
    and variable v in base 2*n*span_v + dspan_v + 1 (dspan_v the divisor's
    spread).  A k-minor spreads at most k*span_v, every Bareiss numerator
    is a product of two minors of size at most n, and the final quotient
    times the divisor stays below n*span_v + dspan_v, so no digit of any
    key ever carries: packing is injective, exponent addition is int
    addition and int order is lexicographic order.  Polynomials are dicts
    from key to nonzero coefficient, unpacked to MultiLaurent once at the
    end.  An inexact division is an internal error and raises
    ArithmeticError.
    """
    n = len(mat)
    exps = [e for row in mat for p in row for e in p.terms]
    lo = [min((e[v] for e in exps), default=0) for v in range(nvars)]
    span = [max((e[v] for e in exps), default=0) - lo[v] for v in range(nvars)]
    dterms = divisor.terms if divisor is not None else {(0,) * nvars: 1}
    dlo = [min(e[v] for e in dterms) for v in range(nvars)]
    bases = [2 * n * s + max(e[v] for e in dterms) - d + 1
             for v, (s, d) in enumerate(zip(span, dlo))]
    weights = [1] * nvars
    for v in range(nvars - 2, -1, -1):
        weights[v] = weights[v + 1] * bases[v + 1]

    def pack(terms, shift):
        return {sum((x - s) * w for x, s, w in zip(e, shift, weights)): c
                for e, c in terms.items()}

    a = [[pack(p.terms, lo) for p in row] for row in mat]
    det = _bareiss(a)
    if det:
        det = _packed_divide(det, pack(dterms, dlo))
    out = {}
    for key, c in det.items():
        e = [0] * nvars
        for v in range(nvars - 1, -1, -1):
            key, digit = divmod(key, bases[v])
            e[v] = digit + n * lo[v] - dlo[v]
        out[tuple(e)] = c
    return MultiLaurent(nvars, out)


def _bareiss(a):
    """Determinant of a square matrix of packed polynomials (modified in place)."""
    n = len(a)
    sign = 1
    prev = {0: 1}
    for k in range(n):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                size = len(a[i][j])
                if size and (best is None or size < best[0]):
                    best = (size, i, j)
        if best is None:
            return {}
        _, pi, pj = best
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        piv, pivot_row = a[k][k].items(), a[k]
        for i in range(k + 1, n):
            row = a[i]
            left = row[k].items()
            for j in range(k + 1, n):
                num = {}
                get = num.get
                for k1, c1 in piv:
                    for k2, c2 in row[j].items():
                        key = k1 + k2
                        num[key] = get(key, 0) + c1 * c2
                for k1, c1 in left:
                    for k2, c2 in pivot_row[j].items():
                        key = k1 + k2
                        num[key] = get(key, 0) - c1 * c2
                num = {key: c for key, c in num.items() if c}
                row[j] = _packed_divide(num, prev) if num else num
            row[k] = {}
        prev = a[k][k]
    det = a[n - 1][n - 1] if n else {0: 1}
    return det if sign == 1 else {key: -c for key, c in det.items()}


def _packed_divide(p, q):
    """Exact quotient of packed polynomials; ArithmeticError if inexact.

    A monomial divisor, which the fewest-terms pivot makes of almost every
    Bareiss divisor, shifts keys and divides coefficients.  Otherwise
    leading terms are cancelled in decreasing key order, the remainder's
    keys held in a max-heap.  A quotient key below zero lies outside the
    packed box, so the division cannot be exact.
    """
    if len(q) == 1:
        ((qk, qc),) = q.items()
        out = {}
        for key, c in p.items():
            if key < qk or c % qc:
                raise ArithmeticError("inexact polynomial division (internal error)")
            out[key - qk] = c // qc
        return out
    lead = max(q)
    lc = q[lead]
    tail = [(key - lead, c) for key, c in q.items() if key != lead]
    rem = dict(p)
    heap = [-key for key in rem]
    heapify(heap)
    out = {}
    while heap:
        key = -heappop(heap)
        c = rem.pop(key, 0)
        if not c:
            continue
        if key < lead or c % lc:
            raise ArithmeticError("inexact polynomial division (internal error)")
        c //= lc
        out[key - lead] = c
        for dk, dc in tail:
            t = key + dk
            nc = rem.get(t, 0) - c * dc
            if t not in rem:
                heappush(heap, -t)
            if nc:
                rem[t] = nc
            else:
                del rem[t]
    return out


# ----------------------------------------------------------------------
# Gordon-Litherland signature

# Calibration of the two sign conventions that the checkerboard story
# leaves free: the incidence sign eta of a crossing whose white sectors
# are the {1,3} corner diagonal, and which value of sign(c)*eta(c) marks
# a crossing as type II for the correction term.  Both are pinned by the
# fixture values sigma(hopf_plus) = -1 and friends; see the test suite.
ETA_CAL = -1
TYPE_CAL = 1


def _checkerboard(d: LinkDiagram):
    """Faces, their two-coloring, and the face at each corner."""
    faces = d.faces()
    face_at = {}
    for fi, face in enumerate(faces):
        for corner in face:
            face_at[corner] = fi
    edge_faces = {}
    for fi, face in enumerate(faces):
        for ci, k in face:
            e = d.crossings[ci][(k + 1) % 4]
            edge_faces.setdefault(e, []).append(fi)
    color = {0: 0}
    queue = [0]
    adj = {}
    for e, pair in edge_faces.items():
        assert len(pair) == 2
        f, g = pair
        adj.setdefault(f, []).append(g)
        adj.setdefault(g, []).append(f)
    while queue:
        f = queue.pop()
        for g in adj.get(f, ()):
            if g not in color:
                color[g] = 1 - color[f]
                queue.append(g)
            elif color[g] == color[f]:
                raise ValueError("projection is not checkerboard colorable")
    assert len(color) == len(faces)
    return faces, color, face_at


def _goeritz_data(d, faces, color, face_at, white):
    """Goeritz matrix (white faces, one deleted) and correction term."""
    white_faces = [fi for fi in range(len(faces)) if color[fi] == white]
    index = {fi: i for i, fi in enumerate(white_faces)}
    m = len(white_faces)
    full = [[0] * m for _ in range(m)]
    mu = 0
    for ci in range(len(d.crossings)):
        white_diag = (1, 3) if color[face_at[(ci, 1)]] == white else (0, 2)
        eta = ETA_CAL if white_diag == (1, 3) else -ETA_CAL
        if d.signs[ci] * eta == TYPE_CAL:
            mu += eta
        u = index[face_at[(ci, white_diag[0])]]
        v = index[face_at[(ci, white_diag[1])]]
        if u != v:
            full[u][v] -= eta
            full[v][u] -= eta
            full[u][u] += eta
            full[v][v] += eta
    reduced = [row[1:] for row in full[1:]]
    return reduced, mu


def signature(d: LinkDiagram) -> int:
    """Signature of the oriented link presented by ``d``.

    Computed as the signature of the Goeritz form of a checkerboard
    surface minus the orientation correction term.  Both checkerboard
    colorings are evaluated and must agree; the shared value is a link
    invariant.  Convention: signature(hopf_plus) = -1.
    """
    if not d.crossings:
        return 0
    if not d.is_connected():
        raise ValueError("signature needs a connected projection")
    faces, color, face_at = _checkerboard(d)
    values = []
    for white in (0, 1):
        reduced, mu = _goeritz_data(d, faces, color, face_at, white)
        values.append(_ldlt(reduced)[0] - mu)
    assert values[0] == values[1], "checkerboard colorings disagree (internal error)"
    return values[0]


def goeritz_determinant(d: LinkDiagram) -> int:
    """|det| of the reduced Goeritz matrix; the determinant of the link."""
    if not d.crossings:
        return 1
    if not d.is_connected():
        raise ValueError("needs a connected projection")
    faces, color, face_at = _checkerboard(d)
    reduced, _ = _goeritz_data(d, faces, color, face_at, 0)
    return abs(_ldlt(reduced)[1])


def _ldlt(mat) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix.

    Exact block LDL^T over the rationals.  A nonzero diagonal pivot
    contributes its sign to the signature and its value to the
    determinant.  When the live diagonal is entirely zero, a nonzero
    off-diagonal entry b gives a hyperbolic 2x2 block: signature 0,
    determinant -b^2.  A live block that is entirely zero makes the
    determinant 0 and adds nothing to the signature.
    """
    a = [[Fraction(x) for x in row] for row in mat]
    alive = list(range(len(mat)))
    sig, det = 0, Fraction(1)
    while alive:
        p = next((i for i in alive if a[i][i]), None)
        if p is not None:
            piv = a[p][p]
            sig += 1 if piv > 0 else -1
            det *= piv
            alive.remove(p)
            hit = [i for i in alive if a[i][p]]  # only these rows and columns change
            for i in hit:
                f = a[i][p] / piv
                for j in hit:
                    a[i][j] -= f * a[j][p]
            continue
        pair = next(((i, j) for i in alive for j in alive if i != j and a[i][j]), None)
        if pair is None:
            return sig, 0
        i, j = pair
        b = a[i][j]
        det *= -b * b
        alive.remove(i)
        alive.remove(j)
        hit = [u for u in alive if a[u][i] or a[u][j]]
        for u in hit:
            fi, fj = a[u][i] / b, a[u][j] / b
            for v in hit:
                a[u][v] -= fi * a[v][j] + fj * a[v][i]
    assert det.denominator == 1
    return sig, int(det)
