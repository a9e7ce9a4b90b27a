"""Classical invariants of an oriented link diagram.

Two quantities are computed here, both in exact arithmetic:

* the symmetrized multivariable Alexander polynomial, via Fox calculus
  on the Wirtinger presentation, whose abelianized Fox matrix is read
  straight off the crossings, one row per crossing, and
* the signature of the oriented link, via the Gordon-Litherland form of
  a checkerboard surface.

The Fox determinant is one elimination on sparse rows of packed
polynomials, with rows and columns ordered by a breadth-first walk of
the diagram, in one loop: its steps are Gaussian while the
fewest-terms pivot is a unit, +-1 times a monomial, and become
fraction-free (Bareiss) at the first pivot that is not.  Every entry
update is formed term by term.  The Fox matrix is built packed, in one
box: every doubled exponent of a Fox entry is 0 or 2, so for a minor
with n rows each variable is a signed digit in balanced base W = 8n + 1,
T1 the most significant, and no key a step forms leaves the box.
On an alternating projection every crossing has the same checkerboard
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

from .laurent import MultiLaurent, one, symmetric_normalize, zero
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
    exponent 0 or 2, in balanced base W = 8n + 1 for a minor with n rows,
    wide enough that no key of the elimination carries.  The elimination
    takes Gaussian steps while the pivot is a unit and fraction-free
    steps from the first pivot that is not; the division by T_i - 1 is
    performed exactly, and a nonzero remainder is an internal error, not
    a possible outcome.  The result is normalized to its bar-symmetric
    representative with positive leading coefficient.
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
    crossings has n = c - 1 rows, so the balanced base is W = 8n + 1 for
    every variable, the bound 4*n*span + 1 of ``_packed_det`` with
    span = 2.  Of l variables, T_(i+1) is the key 2*W^(l-1-i) and the
    unit the key 0.
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
    base = 8 * len(d.crossings) - 7
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
    (0..n-1) to nonzero entry; columns it lacks are zero.  The rows and
    their entries are consumed by the elimination.  Entries and the
    divisor are dicts from packed key to nonzero coefficient.  A key
    packs an exponent vector in balanced base W = ``base`` (odd): the
    sum of d_v W^(l-1-v), T1 the most significant, each digit
    |d_v| <= (W - 1)/2.  While every digit stays in that range, key
    addition is exponent addition and int order is lexicographic order.

    One elimination, each step k taking its pivot p_k by the rule of
    ``_pivot`` and updating the rows below the pivot row.  While every
    pivot so far is a unit u, +-1 times a monomial, the step is
    Gaussian: each later row holding the pivot column loses it and takes
    a_ij -= a_ik (a_kj / u) on the pivot row's columns j (``_subtract``);
    u joins a running unit product.  From the first pivot that is not a
    unit, at step h, every step is fraction-free (Bareiss, Math. Comp.
    22, 1968): with p_(h-1) = 1, step k brings every row below the
    pivot row to

        a_ij = (p_k a_ij - a_ik a_kj) / p_(k-1)

    on the columns stored in it or in the pivot row (``_entry``), a
    missing entry counting as zero and an entry that becomes zero
    deleted.  Each such entry is a (k - h + 2)-minor of the trailing
    block at positions h..n-1, so the division is exact, and that
    block's determinant is the last pivot.  The determinant is the unit
    product times it, with the sign of every swap.

    The box.  Let the entries' digits run over 0..s in every variable,
    and write K for the pivot rows and columns of the first k steps.
    After k Gaussian steps the trailing entry in row i and column j is
    the Schur complement det A[K+i, K+j] / det A[K, K], a (k+1)-minor
    over a k-minor that is a monomial: digits in -ks..(k+1)s.  Likewise
    a_kj / u is a (k+1)-minor over the monomial det A[K+k, K+k]: digits
    in -(k+1)s..(k+1)s.  Only steps k <= n - 2 have later rows, so a term
    product of a Gaussian step has digits in -(2n-3)s..(2n-2)s.  Every
    entry a fraction-free step forms is a minor of the trailing block,
    that is a minor of A over det A[K, K] for the h Gaussian steps' K,
    and each numerator multiplies two of them, of sizes r1, r2 <= n - h:
    digits in -2hs..(2h + r1 + r2)s, within -2ns..2ns.  The determinant
    is an n-minor of A, digits in 0..ns.  A divisor with digits from 0
    that divides it exactly spans no more than it, and the quotient's
    terms times the divisor's, which are all the keys the division
    forms, stay within its range.  So every key a step forms has
    |digit| <= 2ns, and W >= 4ns + 1 keeps every digit in range: packing
    is injective and no digit carries.  The Fox minor (``_fox_rows``)
    has s = 2 and W = 8n + 1.  An inexact division is an internal error
    and raises ArithmeticError, as does a determinant with a negative
    digit, which no minor of such entries can have.
    """
    n = len(rows)
    pos, col_at = list(range(n)), list(range(n))
    sign, unit, down = 1, 0, None
    for k in range(n):
        pj, swaps = _pivot(rows, k, pos, col_at)
        if pj is None:
            return zero(nvars)
        sign *= swaps
        pivot_row = rows[k]
        p = pivot_row.pop(pj)
        (uk, uc), *more = p.items()
        if down is None and not more and uc in (1, -1):
            sign *= uc
            unit += uk
            # a_kj / u, with 1/u = uc X^-uk
            tops = [(j, [(key - uk, c * uc) for key, c in top.items()])
                    for j, top in pivot_row.items()]
            for i in range(k + 1, n):
                row = rows[i]
                left = row.pop(pj, None)
                if left is None:
                    continue
                left = left.items()
                for j, top in tops:
                    new = _subtract(row.pop(j, None) or {}, left, top)
                    if new:
                        row[j] = new
            continue
        # fraction-free from the first pivot that is not a unit, p_(h-1) = 1
        down = down or {0: 1}
        piv = p.items()
        tops = [(j, top.items()) for j, top in pivot_row.items()]
        for i in range(k + 1, n):
            row = rows[i]
            left = row.pop(pj, None)
            left = left.items() if left else ()
            new = {j: _entry(piv, cur, (), (), down)
                   for j, cur in row.items() if j not in pivot_row}
            for j, top in tops:
                cur = row.get(j)
                if cur or left:
                    entry = _entry(piv, cur, left, top, down)
                    if entry:
                        new[j] = entry
            rows[i] = new
        down = p
    det = {key + unit: c * sign for key, c in (down or {0: 1}).items()}
    if divisor is not None:
        det = _packed_divide(det, divisor)
    half = base // 2
    out = {}
    for key, c in det.items():
        e = [0] * nvars
        for v in range(nvars - 1, -1, -1):
            key, digit = divmod(key + half, base)
            e[v] = digit - half
        if key or min(e) < 0:
            raise ArithmeticError("determinant outside the packed box (internal error)")
        out[tuple(e)] = c
    return MultiLaurent._trusted(nvars, out)


def _pivot(a, k, pos, col_at):
    """Column of the pivot of step k, moved with its row to position (k, k),
    and the sign of the swaps; (None, 0) when rows k..n-1 are empty.

    The pivot has the fewest terms among the stored entries of the rows
    at positions k..n-1, ties broken by row position and then by column
    position.  Rows are swapped in the list ``a``; columns never move,
    but ``pos[j]`` is column j's position and ``col_at[k]`` the column
    at position k, so a column swap is two writes to each.
    """
    best = 0
    for i in range(k, len(a)):
        for j, p in a[i].items():
            size = len(p)
            if not best or size < best or (size == best and i == pi and pos[j] < pos[pj]):
                best, pi, pj = size, i, j
        if best == 1:
            # no later row can hold a smaller entry or win a tie
            break
    if not best:
        return None, 0
    sign = 1
    if pi != k:
        a[k], a[pi] = a[pi], a[k]
        sign = -sign
    q = pos[pj]
    if q != k:
        other = col_at[k]
        col_at[k], col_at[q] = pj, other
        pos[pj], pos[other] = k, q
        sign = -sign
    return pj, sign


def _subtract(cur, left, top):
    """``cur`` - left*top of packed polynomials, formed in place in the
    dict ``cur`` (returned); ``left`` is an iterable and ``top`` a list
    of (key, coefficient) terms.

    One dict update per term product; packed keys add as exponents do
    (see ``_packed_det``), and a coefficient that cancels to zero is
    deleted.
    """
    get = cur.get
    for k1, c1 in left:
        for k2, c2 in top:
            key = k1 + k2
            c = get(key, 0) - c1 * c2
            if c:
                cur[key] = c
            else:
                del cur[key]
    return cur


def _entry(p, a, left, top, down):
    """The Bareiss entry (p*a - left*top) / down of packed polynomials:
    ``a`` and ``down`` dicts, the others item views, a missing factor
    counting as 0.

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

    Keys are balanced (see ``_packed_det``), so a quotient may hold
    negative keys.  A monomial divisor shifts keys and divides
    coefficients, which must divide exactly.  Otherwise leading terms
    are cancelled in decreasing key order, the remainder's keys held in
    a max-heap.  An exact quotient has no key below min(p) - min(q), so
    a quotient key below that means the division is not exact; this
    floor also ends the cancellation of an inexact one.  ``p`` may hold
    zero coefficients, as a numerator formed term by term does; the
    quotient has none.
    """
    if len(q) == 1:
        ((qk, qc),) = q.items()
        out = {}
        for key, c in p.items():
            if c:
                if c % qc:
                    raise ArithmeticError("inexact polynomial division (internal error)")
                out[key - qk] = c // qc
        return out
    lead = max(q)
    lc = q[lead]
    floor = min(p, default=0) - min(q)
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
        if key - lead < floor or c % lc:
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
    alternates across every edge exists.  A walk over the faces' corners
    finds it: the edge at slot k + 1 of crossing ci parts the corners
    (ci, k) and (ci, k + 1), so the face across it from the face that
    holds (ci, k) is the face that holds (ci, k + 1).
    """
    faces = d.faces
    face_at = {corner: fi for fi, face in enumerate(faces) for corner in face}
    color = {0: 0}
    queue = [0]
    while queue:
        f = queue.pop()
        for ci, k in faces[f]:
            g = face_at[ci, (k + 1) % 4]
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
