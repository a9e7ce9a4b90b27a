"""Classical invariants of an oriented link diagram.

Two quantities are computed here, both in exact arithmetic:

* the symmetrized multivariable Alexander polynomial, via Fox calculus
  on the Wirtinger presentation, whose abelianized Fox matrix is read
  straight off the crossings, one row per crossing, and
* the signature of the oriented link, via the Gordon-Litherland form of
  a checkerboard surface.

The Fox determinant is a fraction-free Bareiss elimination on sparse
rows.  On an alternating projection every crossing has the same
checkerboard type, the Goeritz form is definite, and the signature is
a count of white faces; only other projections run an elimination for
it.

Both are diagram invariants of the underlying oriented link, which the
test suite exercises by computing them from independently constructed
diagrams of the same link.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .laurent import MultiLaurent, one, symmetric_normalize
from .linkdiag import LinkDiagram

__all__ = [
    "AlexanderResult",
    "multivariable_alexander",
    "signature",
    "goeritz_determinant",
]


# ----------------------------------------------------------------------
# Fox calculus

@dataclass
class AlexanderResult:
    """Symmetrized Alexander polynomial of an oriented link."""

    delta: MultiLaurent


def multivariable_alexander(d: LinkDiagram) -> AlexanderResult:
    """Alexander polynomial of the oriented link presented by ``d``.

    The generators of the Wirtinger presentation are the arcs, maximal
    over-strands, and each crossing gives one relator; ``_fox_rows``
    reads the abelianized Fox derivatives of that relator straight off
    the crossing, one row per crossing.  The Fox matrix has one
    redundant row and satisfies the column relation
    sum_g M[.,g]*(T_comp(g)-1) = 0, so deleting one row and the column
    of a generator on component i leaves a square matrix whose
    determinant is (T_i-1)*Delta up to units when the link has more
    than one component, and Delta itself for a knot.  Here the first
    row and the first arc on the first component are deleted.  The
    determinant is computed fraction-free and the (T_1-1) division is
    performed exactly; a nonzero remainder is an internal error, not a
    possible outcome.  The result is normalized to its bar-symmetric
    representative with positive leading coefficient.
    """
    if not d.crossings:
        return AlexanderResult(one(1))
    nvars = d.n_components
    arc_component, rows = _fox_rows(d)
    del_col = arc_component.index(0)
    mat = [{g - (g > del_col): p for g, p in row.items() if g != del_col} for row in rows[1:]]
    unit = (0,) * nvars
    torres = {(2,) + unit[1:]: 1, unit: -1} if nvars >= 2 else None
    det = _packed_det(mat, nvars, torres)
    return AlexanderResult(symmetric_normalize(det) if det else det)


def _fox_rows(d: LinkDiagram):
    """The arcs' components and the abelianized Fox matrix, one row per crossing.

    Arcs are maximal over-strands: edges merged across every crossing
    where they pass over, numbered by their smallest merged edge label.
    A crossing (a, b, c, .) with incoming under-arc a, over-arc b and
    outgoing under-arc c has relator b a b^-1 c^-1 when positive and
    b^-1 a b c^-1 when negative.  Sending an arc on component i to T_i,
    its Fox row is {a: T_o, b: 1 - T_u, c: -1} or, scaled by the unit
    T_o, {a: 1, b: T_u - 1, c: -T_o}, where T_o and T_u are the
    variables of the over- and under-strand.  Each row maps an arc to a
    dict from doubled exponent vector to nonzero coefficient; coinciding
    arcs add up.
    """
    if not d.connected:
        raise ValueError("Wirtinger presentation needs a connected projection")
    parent = {e: e for e in d.edge_comp}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for x in d.crossings:
        ra, rb = find(x[1]), find(x[3])
        if ra != rb:
            parent[ra] = rb
    reps = sorted({find(e) for e in d.edge_comp})
    rep_index = {r: i for i, r in enumerate(reps)}
    arc = {e: rep_index[find(e)] for e in d.edge_comp}
    arc_component = [d.edge_comp[r] for r in reps]
    assert len(reps) == len(d.crossings)
    nvars = d.n_components
    unit = (0,) * nvars
    var = [unit[:i] + (2,) + unit[i + 1:] for i in range(nvars)]
    rows = []
    for x, sign in zip(d.crossings, d.signs):
        a, b, c = arc[x[0]], arc[x[1]], arc[x[2]]
        assert arc_component[a] == arc_component[c], \
            "relator does not abelianize to the identity"
        t_o, t_u = var[arc_component[b]], var[arc_component[a]]
        if sign == 1:
            cells = ((a, t_o, 1), (b, unit, 1), (b, t_u, -1), (c, unit, -1))
        else:
            cells = ((a, unit, 1), (b, t_u, 1), (b, unit, -1), (c, t_o, -1))
        row = {}
        for g, e, coeff in cells:
            cell = row.setdefault(g, {})
            coeff += cell.pop(e, 0)
            if coeff:
                cell[e] = coeff
        rows.append(row)
    return arc_component, rows


def _packed_det(rows, nvars, divisor=None):
    """Determinant of a square sparse polynomial matrix, divided exactly by ``divisor``.

    Row i of the n x n matrix is ``rows[i]``, a dict from column
    (0..n-1) to entry; columns it lacks, and entries that are empty,
    are zero, and only the other entries are packed.  Entries and the
    divisor are dicts from doubled exponent vector to nonzero
    coefficient.  Fraction-free Bareiss elimination with the
    fewest-terms pivot, run on packed exponent keys.  Each variable's
    exponents are shifted by their minimum over the matrix (the divisor
    by its own minimum), so they run over 0..span_v, span_v being their
    spread over the whole matrix.  An exponent vector is packed into one
    int, T1 the most significant digit and variable v in base
    2*n*span_v + dspan_v + 1 (dspan_v the divisor's spread).  A k-minor
    spreads at most k*span_v.  Every numerator of the lazy elimination
    in ``_bareiss`` is made of products of two minors of size at most
    n: p_k * a^(m)[i][j] and a^(m)[i][k] * a^(k)[k][j] for a row of
    level m, p_(k-1) * a^(m)[k][j] for a pivot row brought up to date.
    The final quotient times the divisor stays below n*span_v +
    dspan_v.  So no digit of any key ever carries: packing is
    injective, exponent addition is int addition and int order is
    lexicographic order.  Polynomials are dicts from key to nonzero
    coefficient, unpacked to a MultiLaurent once at the end.  An
    inexact division is an internal error and raises ArithmeticError.
    """
    n = len(rows)
    exps = [e for row in rows for p in row.values() for e in p]
    lo = [min((e[v] for e in exps), default=0) for v in range(nvars)]
    span = [max((e[v] for e in exps), default=0) - lo[v] for v in range(nvars)]
    dterms = divisor if divisor is not None else {(0,) * nvars: 1}
    dlo = [min(e[v] for e in dterms) for v in range(nvars)]
    bases = [2 * n * s + max(e[v] for e in dterms) - d + 1
             for v, (s, d) in enumerate(zip(span, dlo))]
    weights = [1] * nvars
    for v in range(nvars - 2, -1, -1):
        weights[v] = weights[v + 1] * bases[v + 1]

    def pack(terms, shift):
        return {sum((x - s) * w for x, s, w in zip(e, shift, weights)): c
                for e, c in terms.items()}

    a = [{j: pack(p, lo) for j, p in row.items() if p} for row in rows]
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
    """Determinant of a square sparse matrix of packed polynomials (modified in place).

    Row i is the dict ``a[i]`` from column to nonzero entry.  Rows are
    swapped in the list; columns never move, but ``pos[j]`` is column
    j's current position and ``col_at[k]`` the column at position k, so
    a column swap is two writes to each.  Step k takes the pivot with
    the fewest terms among the stored entries of the rows at positions
    k..n-1, ties broken by row position and then by column position.
    The rows below the pivot row store only columns at positions above
    k once the step is done.

    Fraction-free Bareiss elimination, lazy in the rows.  Write p_k for
    the pivot of step k (p_-1 = 1) and a^(m) for the matrix after m
    steps.  A step whose pivot column is empty in row i would only scale
    that row by p_k / p_(k-1).  These factors telescope, so such a step
    skips the row, which keeps its level m: it holds a^(m)[i].  When
    step k reaches a row of level m, it brings the row to level k + 1
    at once:

        a^(k+1)[i][j] = (p_k a^(m)[i][j] - a^(m)[i][k] a^(k)[k][j]) / p_(m-1),

    an exact division because the result is a (k+2)-minor.  Both
    products in the numerator multiply two minors of size at most n, so
    no packed digit carries (see ``_packed_det``).  Only the columns
    stored in row i or in the pivot row are visited, and an entry that
    becomes zero is deleted.  A pivot row of level m < k is first
    brought up to level k, by multiplying with p_(k-1) and dividing by
    p_(m-1), so the pivots, and with them the determinant, are those of
    the eager elimination.  Scaling a row empties no entry, so the
    stored entries have the zero pattern of the eager ones; the
    fewest-terms rule reads the stored entries.
    """
    n = len(a)
    sign = 1
    # divisor[m] = p_(m-1), the divisor of a row of level m
    divisor = [{0: 1}]
    level = [0] * n
    pos = list(range(n))
    col_at = list(range(n))
    for k in range(n):
        best = 0
        for i in range(k, n):
            for j, p in a[i].items():
                size = len(p)
                if not best or size < best or (size == best and i == pi and pos[j] < pos[pj]):
                    best, pi, pj = size, i, j
            if best == 1:
                # no later row can hold a smaller entry or win a tie
                break
        if not best:
            return {}
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            level[k], level[pi] = level[pi], level[k]
            sign = -sign
        q = pos[pj]
        if q != k:
            other = col_at[k]
            col_at[k], col_at[q] = pj, other
            pos[pj], pos[other] = k, q
            sign = -sign
        pivot_row = a[k]
        if level[k] < k:
            up, down = divisor[k].items(), divisor[level[k]]
            for j, p in pivot_row.items():
                num = {}
                get = num.get
                for k1, c1 in up:
                    for k2, c2 in p.items():
                        key = k1 + k2
                        num[key] = get(key, 0) + c1 * c2
                num = {key: c for key, c in num.items() if c}
                pivot_row[j] = _packed_divide(num, down)
        divisor.append(pivot_row[pj])
        piv = pivot_row[pj].items()
        tops = [(j, top.items()) for j, top in pivot_row.items() if j != pj]
        for i in range(k + 1, n):
            row = a[i]
            left = row.pop(pj, None)
            if left is None:
                continue
            left = left.items()
            down = divisor[level[i]]
            for j, cur in row.items():
                if j not in pivot_row:
                    num = {}
                    get = num.get
                    for k1, c1 in piv:
                        for k2, c2 in cur.items():
                            key = k1 + k2
                            num[key] = get(key, 0) + c1 * c2
                    num = {key: c for key, c in num.items() if c}
                    row[j] = _packed_divide(num, down)
            for j, top in tops:
                num = {}
                get = num.get
                cur = row.get(j)
                if cur:
                    for k1, c1 in piv:
                        for k2, c2 in cur.items():
                            key = k1 + k2
                            num[key] = get(key, 0) + c1 * c2
                for k1, c1 in left:
                    for k2, c2 in top:
                        key = k1 + k2
                        num[key] = get(key, 0) - c1 * c2
                num = {key: c for key, c in num.items() if c}
                if num:
                    row[j] = _packed_divide(num, down)
                elif cur:
                    del row[j]
            level[i] = k + 1
    det = divisor[n]
    return det if sign == 1 else {key: -c for key, c in det.items()}


def _packed_divide(p, q):
    """Exact quotient of packed polynomials; ArithmeticError if inexact.

    A monomial divisor shifts keys and divides coefficients.  A Bareiss
    divisor is the pivot p_(m-1) of a row's level m, and 1 at level 0.
    A Fox row holds monomials and binomials and the fewest-terms rule
    picks a monomial wherever there is one, so nearly every Bareiss
    divisor is a monomial.  The Torres divisor T1 - 1 never is.
    Otherwise leading terms are cancelled in decreasing key order, the
    remainder's keys held in a max-heap.  A quotient key below zero
    lies outside the packed box, so the division cannot be exact.
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
    faces = d.faces
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
    """White face count, one Goeritz edge per crossing, and correction term.

    The white faces are numbered 0..m-1 in face order.  Crossing ci
    gives the edge (u, v, eta): the white faces at its two white corners
    and its incidence sign.  An edge with u == v is a loop.
    """
    white_faces = [fi for fi in range(len(faces)) if color[fi] == white]
    index = {fi: i for i, fi in enumerate(white_faces)}
    edges = []
    mu = 0
    for ci, sign in enumerate(d.signs):
        white_diag = (1, 3) if color[face_at[(ci, 1)]] == white else (0, 2)
        eta = ETA_CAL if white_diag == (1, 3) else -ETA_CAL
        if sign * eta == TYPE_CAL:
            mu += eta
        edges.append((index[face_at[(ci, white_diag[0])]],
                      index[face_at[(ci, white_diag[1])]], eta))
    return len(white_faces), edges, mu


def _goeritz_matrix(m, edges):
    """Goeritz matrix of m white faces, face 0's row and column deleted."""
    full = [[0] * m for _ in range(m)]
    for u, v, eta in edges:
        if u != v:
            full[u][v] -= eta
            full[v][u] -= eta
            full[u][u] += eta
            full[v][v] += eta
    return [row[1:] for row in full[1:]]


def signature(d: LinkDiagram) -> int:
    """Signature of the oriented link presented by ``d``.

    Computed as the signature of the Goeritz form of a checkerboard
    surface minus the orientation correction term mu.  Both checkerboard
    colorings are evaluated and must agree; the shared value is a link
    invariant.  Convention: signature(hopf_plus) = -1.

    When every crossing has the same incidence sign eta, as at every
    crossing of an alternating projection, the Goeritz matrix is
    G = eta * L_red, where L_red is the reduced Laplacian of the graph
    whose vertices are the m white faces and whose edges are the
    crossings.  That graph is connected for a connected projection, so
    L_red is positive definite: it is a principal submatrix of the
    positive semidefinite Laplacian, and its determinant counts the
    spanning trees (matrix-tree theorem).  The form's signature is then
    eta * (m - 1), and sigma = eta * (m - 1) - mu is a count, with no
    matrix built.  Any other coloring goes through ``_ldlt``.
    """
    if not d.crossings:
        return 0
    if not d.connected:
        raise ValueError("signature needs a connected projection")
    faces, color, face_at = _checkerboard(d)
    values = []
    for white in (0, 1):
        m, edges, mu = _goeritz_data(d, faces, color, face_at, white)
        etas = {eta for _, _, eta in edges}
        if len(etas) == 1:
            form = etas.pop() * (m - 1)
        else:
            form = _ldlt(_goeritz_matrix(m, edges))[0]
        values.append(form - mu)
    assert values[0] == values[1], "checkerboard colorings disagree (internal error)"
    return values[0]


def goeritz_determinant(d: LinkDiagram) -> int:
    """|det| of the reduced Goeritz matrix; the determinant of the link."""
    if not d.crossings:
        return 1
    if not d.connected:
        raise ValueError("needs a connected projection")
    faces, color, face_at = _checkerboard(d)
    m, edges, _ = _goeritz_data(d, faces, color, face_at, 0)
    return abs(_ldlt(_goeritz_matrix(m, edges))[1])


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
