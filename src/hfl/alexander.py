"""Classical invariants of an oriented link diagram.

Two quantities are computed here, both in exact arithmetic:

* the symmetrized multivariable Alexander polynomial, via Fox calculus
  on the Wirtinger presentation, whose abelianized Fox matrix is read
  straight off the crossings, one row per crossing, and
* the signature of the oriented link, via the Gordon-Litherland form of
  a checkerboard surface.

The Fox determinant is a fraction-free Bareiss elimination on sparse
rows of packed polynomials, every entry update formed term by term
(``_entry``), with rows and columns ordered by a breadth-first walk of
the diagram.  The Fox matrix is built packed, in one box: every doubled
exponent of a Fox entry is 0 or 2, so for a minor with n rows each
variable is a digit in base B = 4n + 3, T1 the most significant.  On
an alternating projection every crossing has the same checkerboard
type, the Goeritz form is definite, and the signature is a count of
white faces; only other projections run an elimination for it.

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
    than one component, and Delta itself for a knot.

    Which row and column go is chosen from the structure of the matrix
    (``_walk``): a breadth-first walk from row 0 over the crossing-arc
    incidence graph orders rows and arcs by their distance from it.
    Row 0 and the last arc the walk reaches are deleted, and the
    division is by T_i - 1 for that arc's component i.  The other rows
    go to ``_packed_det`` in reverse walk order (reverse Cuthill-McKee)
    and the other columns in walk order, so the fewest-terms pivot
    breaks its ties by structural position, not by PD label: first the
    row farthest from the deleted crossing, then the arc nearest to it.
    The elimination starts at the far side of the diagram and closes in
    on the deleted crossing, so its cost follows the shape of the
    diagram rather than its labels.  The rows come packed, every doubled
    exponent 0 or 2, in base B = 4n + 3 for a minor with n rows, wide
    enough that no key of the elimination carries.  The determinant is
    computed fraction-free and the division is performed exactly; a nonzero
    remainder is an internal error, not a possible outcome.  The result
    is normalized to its bar-symmetric representative with positive
    leading coefficient.
    """
    if not d.crossings:
        return AlexanderResult(one(1))
    nvars = d.n_components
    arc_component, rows, base = _fox_rows(d)
    row_order, arc_order = _walk(rows)
    del_col = arc_order.pop()
    column = {g: j for j, g in enumerate(arc_order)}
    mat = [{column[g]: p for g, p in rows[r].items() if p and g != del_col}
           for r in reversed(row_order[1:])]
    i = arc_component[del_col]
    torres = {2 * base ** (nvars - 1 - i): 1, 0: -1} if nvars >= 2 else None
    det = _packed_det(mat, nvars, base, torres)
    return AlexanderResult(symmetric_normalize(det) if det else det)


def _fox_rows(d: LinkDiagram):
    """The arcs' components, the packed abelianized Fox matrix, one row per
    crossing, and the base of its packed keys.

    Arcs are maximal over-strands: each starts at the outgoing
    under-edge of a crossing and runs on across every crossing where it
    passes over.  They are numbered along the components in traversal
    order.  A crossing (a, b, c, .) with incoming under-arc a, over-arc b
    and outgoing under-arc c has relator b a b^-1 c^-1 when positive and
    b^-1 a b c^-1 when negative.  Sending an arc on component i to T_i,
    its Fox row is {a: T_o, b: 1 - T_u, c: -1} or, scaled by the unit
    T_o, {a: 1, b: T_u - 1, c: -T_o}, where T_o and T_u are the
    variables of the over- and under-strand.  Each row maps an arc to a
    dict from packed key to nonzero coefficient; coinciding arcs add up,
    and an entry that adds up to zero stays in its row as an empty dict
    (the walk still sees the arc) for the minor to leave out.

    The box: every doubled exponent is 0 or 2, and a minor of the c
    crossings has n = c - 1 rows, so the base is B = 4n + 3 for every
    variable, the bound 2*n*span + dspan + 1 of ``_packed_det`` with
    span = 2 and dspan = 2 (the Torres divisor T_i - 1).  Of l
    variables, T_(i+1) is the key 2*B^(l-1-i) and the unit the key 0.
    """
    if not d.connected:
        raise ValueError("Wirtinger presentation needs a connected projection")
    starts = {x[2] for x in d.crossings}
    arc, arc_component = {}, []
    for i, cycle in enumerate(d.components):
        # every component passes under somewhere, so it has a start
        k = next(k for k, e in enumerate(cycle) if e in starts)
        for e in cycle[k:] + cycle[:k]:
            if e in starts:
                arc_component.append(i)
            arc[e] = len(arc_component) - 1
    nvars = d.n_components
    base = 4 * len(d.crossings) - 1
    var = [2 * base ** (nvars - 1 - i) for i in range(nvars)]
    rows = []
    for x, sign in zip(d.crossings, d.signs):
        a, b, c = arc[x[0]], arc[x[1]], arc[x[2]]
        assert arc_component[a] == arc_component[c], "relator does not abelianize to the identity"
        t_o, t_u = var[arc_component[b]], var[arc_component[a]]
        if sign == 1:
            cells = {t_o: 1}, {0: 1, t_u: -1}, {0: -1}
        else:
            cells = {0: 1}, {t_u: 1, 0: -1}, {t_o: -1}
        row = {}
        for g, cell in zip((a, b, c), cells):
            total = row.setdefault(g, cell)
            if total is not cell:
                for e, coeff in cell.items():
                    coeff += total.pop(e, 0)
                    if coeff:
                        total[e] = coeff
        rows.append(row)
    return arc_component, rows, base


def _walk(rows):
    """Rows and arcs of a Fox matrix in breadth-first order from row 0.

    The walk runs over the bipartite crossing-arc incidence graph: a row
    reaches its arcs in the order in which it stores them, and an arc
    reaches the rows that hold it in row order.  The graph of a
    connected projection is connected, so every row and arc is reached.
    """
    holders = [[] for _ in rows]
    for r, row in enumerate(rows):
        for g in row:
            holders[g].append(r)
    row_seen = [True] + [False] * (len(rows) - 1)
    arc_seen = [False] * len(rows)
    row_order, arc_order = [0], []
    for r in row_order:
        for g in rows[r]:
            if not arc_seen[g]:
                arc_seen[g] = True
                arc_order.append(g)
                for h in holders[g]:
                    if not row_seen[h]:
                        row_seen[h] = True
                        row_order.append(h)
    return row_order, arc_order


def _packed_det(rows, nvars, base, divisor=None):
    """Determinant of a square sparse matrix of packed polynomials, divided
    exactly by ``divisor`` and unpacked to a MultiLaurent.

    Row i of the n x n matrix is ``rows[i]``, a dict from column
    (0..n-1) to nonzero entry, consumed by the elimination; columns it
    lacks are zero.  Entries and the divisor are dicts from packed key
    to nonzero coefficient: an exponent vector of nonnegative digits in
    base ``base``, T1 the most significant.  Fraction-free Bareiss
    elimination (``_bareiss``) with the fewest-terms pivot.  If the
    entries' digits run over 0..span and the divisor's over 0..dspan, a
    k-minor's digits stay below k*span + 1.  Every numerator of the lazy
    elimination is p*a - left*top, each product one of two minors of
    size at most n, and the final quotient times the divisor stays below
    n*span + dspan + 1.  So with a base of at least 2*n*span + dspan + 1
    no digit of any key ever carries: packing is injective, exponent
    addition is int addition and int order is lexicographic order.  The
    Fox minor's box (``_fox_rows``) has span = 2 and dspan <= 2, base
    4n + 3.  An inexact division is an internal error and raises
    ArithmeticError.
    """
    det = _bareiss(rows)
    if det and divisor is not None:
        det = _packed_divide(det, divisor)
    out = {}
    for key, c in det.items():
        e = [0] * nvars
        for v in range(nvars - 1, -1, -1):
            key, e[v] = divmod(key, base)
        out[tuple(e)] = c
    return MultiLaurent._trusted(nvars, out)


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
    skips the row, which keeps its level m: it holds a^(m)[i].  Every
    entry the kernel writes is the one update ``_entry`` computes:

        a^(k+1)[i][j] = (p_k a^(m)[i][j] - a^(m)[i][k] a^(k)[k][j]) / p_(m-1),

    a missing factor counting as zero.  The division is exact because
    the result is a (k+2)-minor, and both products multiply two minors
    of size at most n, so no packed digit carries (see ``_packed_det``).
    Step k brings each row below the pivot row whose pivot column is
    not empty to level k + 1, visiting only the columns stored in it or
    in the pivot row and deleting an entry that becomes zero.  A pivot
    row of level m < k is first brought to level k by the update of step
    k - 1, in which its pivot column is empty, so the pivots, and with
    them the determinant, are those of the eager elimination.  Scaling a
    row empties no entry, so the stored entries have the zero pattern of
    the eager ones; the fewest-terms rule reads the stored entries.
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
                pivot_row[j] = _entry(up, p, (), (), down)
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
                    row[j] = _entry(piv, cur, (), (), down)
            for j, top in tops:
                cur = row.get(j)
                new = _entry(piv, cur, left, top, down)
                if new:
                    row[j] = new
                elif cur:
                    del row[j]
            level[i] = k + 1
    det = divisor[n]
    return det if sign == 1 else {key: -c for key, c in det.items()}


def _entry(p, a, left, top, down):
    """The Bareiss entry (p*a - left*top) / down of packed polynomials:
    ``a`` a dict, the others item views, a missing factor counting as 0.

    The numerator is formed term by term, one dict update per term
    product; packed keys add as exponents do (see ``_packed_det``).  It
    may keep the zero coefficients its terms cancel to, which
    ``_packed_divide`` drops.
    """
    a = a.items() if a else ()
    num = {}
    get = num.get
    for x, y, sign in ((p, a, 1), (left, top, -1)):
        for k1, c1 in x:
            c1 *= sign
            for k2, c2 in y:
                key = k1 + k2
                num[key] = get(key, 0) + c1 * c2
    return _packed_divide(num, down)


def _packed_divide(p, q):
    """Exact quotient of packed polynomials; ArithmeticError if inexact.

    A monomial divisor shifts keys and divides coefficients.  A Bareiss
    divisor is the pivot p_(m-1) of a row's level m, and 1 at level 0.
    A Fox row holds monomials and binomials and the fewest-terms rule
    picks a monomial wherever there is one, so nearly every Bareiss
    divisor is a monomial.  The Torres divisor T_i - 1 never is.  The
    unit 1, the divisor of every row at level 0, returns the terms of
    ``p``: packed keys are nonnegative, so that division is always
    exact.  Otherwise leading terms are cancelled in decreasing key
    order, the remainder's keys held in a max-heap.  A quotient key
    below zero lies outside the packed box, so the division cannot be
    exact.  ``p`` may hold zero coefficients, as a numerator formed term
    by term does; the quotient has none.
    """
    if q == {0: 1}:
        return {key: c for key, c in p.items() if c}
    if len(q) == 1:
        ((qk, qc),) = q.items()
        out = {}
        for key, c in p.items():
            if not c:
                continue
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
    """Faces, their two-coloring, and the face at each corner.

    ``LinkDiagram`` refuses a connected code whose face count breaks
    Euler's formula, so the projection is planar and the coloring that
    alternates across every edge exists; the search below finds it.
    """
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
