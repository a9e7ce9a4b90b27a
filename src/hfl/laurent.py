"""Multivariable Laurent polynomials with half-integer exponents.

Exponents live in (1/2)Z per variable and are stored doubled, as plain
integers, so every computation stays in exact integer arithmetic.
Coefficients are arbitrary-precision integers.

Validation happens where values enter.  Every public entry of the
package, here and in the other modules, passes the numbers a caller
gives it through :func:`as_ints`, the one integrality rule: a value
equal to an int (``1.0``, ``Fraction(2)``, ``True``) is stored as that
int, and any other (``2.5``, ``Fraction(1, 2)``, the string ``"3"``) is
refused with a ``ValueError`` naming its field, never truncated.  The
public ``MultiLaurent`` constructor applies it to the variable count,
every exponent and every coefficient, checks each exponent's length and
drops zero coefficients, for JSON (``from_json_dict``), ``monomial``,
scalar operands, CLI input and callers.  The ring operations ``+``,
``-``, ``*`` (by an int or a polynomial), negation, ``bar``, ``shift``
and ``restrict`` build their term dicts from the keys and coefficients
of values already checked, dropping the coefficients that cancel, so
they hand them over unchecked, through ``MultiLaurent._trusted``.  So
do ``symmetric_normalize``, ``MultiGradedVS.euler`` in
:mod:`hfl.filtered` and the Fox determinant's final unpacking in
:mod:`hfl.alexander`.

Normalisation, and products in other than two variables, run on
packed keys: an exponent vector is packed into one int, its doubled
exponents the signed digits of a balanced base wide enough for every
sum formed, so adding keys multiplies monomials and negating a key
bars its monomial.  ``_pack`` and ``_unpack`` are the one packing and
the one unpacking.  A product in two variables adds the two
coordinates instead, which costs less than packing and unpacking.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, neg
from typing import Iterable, Mapping

__all__ = [
    "as_ints",
    "MultiLaurent",
    "monomial",
    "one",
    "zero",
    "spin_product",
    "symmetric_normalize",
    "series_quotient",
    "fmt_half",
]

Expo = tuple[int, ...]


def as_ints(values: Iterable, what: str, *args) -> tuple[int, ...]:
    """Return ``values`` as a tuple of ints, refusing any value not equal to one.

    A value is integral when it equals its ``int()``; it is stored as
    that int.  The first value that is not raises ``ValueError("<what %
    args> <value!r> is not an integer")``.  A tuple of exact ints is
    returned as it is, and no message is formatted unless one is raised.
    """
    if type(values) is tuple:
        for x in values:
            if type(x) is not int:
                break
        else:
            return values
    ints = []
    for x in values:
        try:
            n = int(x)
            integral = n == x
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"{what % args} {x!r} is not an integer")
        ints.append(n)
    return tuple(ints)


def _field(obj, key: str, where: str, kind: type = object):
    """``obj[key]`` of a JSON document, refusing a missing or ill-shaped field."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{where} field {key!r} is not a {kind.__name__}")
    return obj[key]


class MultiLaurent:
    """A Laurent polynomial in ``nvars`` variables T_1..T_n.

    ``terms`` maps doubled exponent vectors to nonzero integer
    coefficients; the zero polynomial has no terms.  Polynomials compare
    by value, and only with polynomials; they are unhashable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Expo, int] | None = None):
        (nvars,) = as_ints((nvars,), "variable count")
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        clean: dict[Expo, int] = {}
        for e, c in (terms or {}).items():
            e = as_ints(e, "exponent")
            (c,) = as_ints((c,), "coefficient")
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong length for {nvars} variables")
            if c:
                clean[e] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiLaurent":
        """Wrap a term dict built from checked values, without re-checking it.

        ``terms`` must already be what the public constructor would keep:
        int-tuple keys of length ``nvars``, nonzero int coefficients.
        """
        p = cls.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

    # ---- ring structure ----

    def __add__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return MultiLaurent._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiLaurent":
        return MultiLaurent._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        return self + (-self._coerce(other))

    def __mul__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, int):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return MultiLaurent._trusted(self.nvars, terms)
        other = self._coerce(other)
        out: dict = {}
        get = out.get
        if self.nvars == 2:
            # two coordinate sums cost less than packing and unpacking
            right = list(other.terms.items())
            for (a, b), c1 in self.terms.items():
                for (x, y), c2 in right:
                    e = (a + x, b + y)
                    out[e] = get(e, 0) + c1 * c2
            return MultiLaurent._trusted(2, {e: c for e, c in out.items() if c})
        if not self.terms or not other.terms:
            return MultiLaurent._trusted(self.nvars, {})
        # in balanced base 2m + 1, m the sum of the factors' largest
        # |doubled exponent|, every product's digits stay in range, so
        # adding packed keys multiplies monomials
        base = 2 * (_reach(self.terms) + _reach(other.terms)) + 1
        right = [(_pack(e, base), c) for e, c in other.terms.items()]
        for e1, c1 in self.terms.items():
            k1 = _pack(e1, base)
            for k2, c2 in right:
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        out = {key: c for key, c in out.items() if c}
        columns, _ = _unpack(out, self.nvars, base)
        return MultiLaurent._trusted(self.nvars, dict(zip(zip(*columns), out.values())))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, MultiLaurent):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MultiLaurent(self.nvars, {(0,) * self.nvars: other})

    # ---- involution and support ----

    def bar(self) -> "MultiLaurent":
        """The involution T_i -> T_i^{-1} on every variable."""
        return MultiLaurent._trusted(self.nvars, {tuple(map(neg, e)): c for e, c in self.terms.items()})

    def support(self) -> list[Expo]:
        return sorted(self.terms)

    def shift(self, e2: Iterable[int]) -> "MultiLaurent":
        """Multiply by the monomial with doubled exponent vector ``e2``."""
        u = as_ints(e2, "shift vector coordinate")
        if len(u) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return MultiLaurent._trusted(self.nvars, {tuple(map(add, e, u)): c for e, c in self.terms.items()})

    def restrict(self, floor2: Iterable[int]) -> "MultiLaurent":
        """Drop terms with any doubled exponent below the given floor."""
        f = as_ints(floor2, "floor coordinate")
        if len(f) != self.nvars:
            raise ValueError("floor vector has wrong length")
        return MultiLaurent._trusted(
            self.nvars,
            {e: c for e, c in self.terms.items() if all(a >= b for a, b in zip(e, f))},
        )

    # ---- display and serialization ----

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = ["T"] if self.nvars == 1 else [f"T{i+1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{names[i]}^{fmt_half(x)}" for i, x in enumerate(e) if x
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    def __repr__(self) -> str:
        return f"MultiLaurent({self.nvars}, {self!s})"

    def to_json_dict(self) -> dict:
        return {
            "l": self.nvars,
            "terms": [{"e2": list(e), "c": self.terms[e]} for e in sorted(self.terms)],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "MultiLaurent":
        """The polynomial of a ``to_json_dict`` document.  A malformed one is
        refused with a ``ValueError`` naming the field."""
        nvars = _field(d, "l", "polynomial")
        terms = {}
        for i, t in enumerate(_field(d, "terms", "polynomial", list)):
            e2 = _field(t, "e2", f"term {i}", list)
            if tuple(e2) in terms:
                raise ValueError(f"duplicate exponent {e2!r}")
            terms[tuple(e2)] = _field(t, "c", f"term {i}")
        return cls(nvars, terms)


def fmt_half(x2: int) -> str:
    """The half-integer x2/2, written as an integer when x2 is even."""
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def zero(nvars: int) -> MultiLaurent:
    return MultiLaurent(nvars, {})


def one(nvars: int) -> MultiLaurent:
    return MultiLaurent(nvars, {(0,) * nvars: 1})


def monomial(nvars: int, e2: Iterable[int], c: int = 1) -> MultiLaurent:
    return MultiLaurent(nvars, {tuple(e2): c})


@cache
def spin_product(nvars: int) -> MultiLaurent:
    """Return prod_i (T_i^{1/2} - T_i^{-1/2}) in ``nvars`` variables.

    The product has 2^nvars terms with coefficients +-1 and half-integer
    exponents throughout.  Like every polynomial, it needs ``nvars >= 1``.
    It is a constant of ``nvars``, built once per count and shared: no
    operation here changes a polynomial in place.
    """
    out = one(nvars)
    for i in range(nvars):
        e_plus = tuple(1 if j == i else 0 for j in range(nvars))
        factor = monomial(nvars, e_plus) - monomial(nvars, tuple(-x for x in e_plus))
        out = out * factor
    return out


def symmetric_normalize(p: MultiLaurent) -> MultiLaurent:
    """Return the centered unit multiple of ``p``.

    Output g satisfies g.bar() == g or g.bar() == -g (torsion
    polynomials are one or the other once centered); among the two sign
    choices the one whose lexicographically leading term has positive
    coefficient is returned, its terms in the order of ``p``'s.  Raises
    ValueError when no unit multiple is symmetric either way.

    The exponents are packed in balanced base 4m + 1, m the largest
    |doubled exponent|, which leaves room for the sums that
    :func:`_normalize_packed` forms, and normalized there; the result's
    exponents are ``p``'s moved by the centring shift the kernel returns,
    and ``p``'s own when that shift is zero.
    """
    if not p:
        return p
    l = p.nvars
    base = 4 * _reach(p.terms) + 1
    g, u = _normalize_packed({_pack(e, base): c for e, c in p.terms.items()}, l, base)
    if any(u):
        terms = {tuple(map(add, e, u)): c for e, c in zip(p.terms, g.values())}
        return MultiLaurent._trusted(l, terms)
    return MultiLaurent._trusted(l, dict(zip(p.terms, g.values())))


def _pack(digits, base: int) -> int:
    """The packed key of signed digits in balanced ``base``, T1 first."""
    key = 0
    for x in digits:
        key = key * base + x
    return key


def _unpack(keys, nvars: int, base: int) -> tuple[list[list[int]], list[int]]:
    """The digit columns of packed keys in balanced ``base``, T1's first,
    and what each key holds above T1.

    This is the one unpacking of packed keys, one variable at a time
    over all keys: column v lists digit v of every key, in the order of
    ``keys``.  A key lies in the box, every digit within (base - 1)/2,
    exactly when nothing is left of it above T1.
    """
    half = base // 2
    columns = []
    for _ in range(nvars):
        columns.append([(key + half) % base - half for key in keys])
        keys = [(key + half) // base for key in keys]
    columns.reverse()
    return columns, keys


def _reach(terms) -> int:
    """The largest |doubled exponent| among the keys of a nonempty ``terms``."""
    return max(map(abs, chain.from_iterable(terms)))


def _normalize_packed(terms: dict, nvars: int, base: int) -> tuple[dict, list[int]]:
    """``symmetric_normalize`` on packed keys: the centered unit multiple of
    ``terms``, still packed and in the same term order, and the digits of
    the centring shift.

    ``terms`` maps packed keys to nonzero coefficients.  A key packs a
    doubled exponent vector as the sum of d_v base^(l-1-v), T1 the most
    significant, each signed digit |d_v| <= (base - 1)/2 for an odd
    ``base``.  The caller picks the base so that the digits of every
    key, of the sum of the least and greatest key, and of every centred
    key stay in that range.  Then int order is lexicographic order,
    adding keys multiplies monomials and negating a key bars its
    monomial: centring is one int add per term, the bar-symmetry test
    one lookup of -key per term, and the sign is read at the greatest
    key.  Raises ValueError when no unit multiple is symmetric, and
    ArithmeticError when the sum of the least and greatest key carries
    past T1, outside the box the base must leave room for.
    """
    lo, hi = min(terms), max(terms)
    # bar reverses the order, so the centred keys run from -top to top
    shift = -lo - hi
    columns, (high,) = _unpack((shift,), nvars, base)
    if high:
        raise ArithmeticError("keys outside the packed box (internal error)")
    (v,) = zip(*columns)
    if any(x % 2 for x in v):
        raise ValueError("no symmetric unit multiple exists (odd lattice offset)")
    u = [x // 2 for x in v]
    shift //= 2
    if terms[hi] > 0:
        g = {key + shift: c for key, c in terms.items()}
    else:
        g = {key + shift: -c for key, c in terms.items()}
    get = g.get
    top = hi + shift
    bar_sign = 1 if get(-top) == g[top] else -1
    for key, c in g.items():
        if get(-key) != bar_sign * c:
            raise ValueError("no symmetric unit multiple exists")
    return g, u


def series_quotient(p: MultiLaurent, i: int, depth: int) -> MultiLaurent:
    """Truncated division of ``p`` by (1 - T_i^{-1}).

    Multiplies by 1 + T_i^{-1} + ... + T_i^{-depth}, the depth-``depth``
    truncation of the geometric series for 1/(1 - T_i^{-1}).  Multiplying
    the result back by (1 - T_i^{-1}) recovers ``p`` on the window where
    the truncation has not bitten: the dropped tail is the exact
    quotient times T_i^{-depth-1}, so the coefficients are only
    trustworthy at doubled T_i-exponents strictly above
    max_i - 2*depth - 2, max_i taken over the support of ``p``.
    """
    (i,) = as_ints((i,), "variable index")
    (depth,) = as_ints((depth,), "series depth")
    if not 1 <= i <= p.nvars:
        raise ValueError("variable index out of range")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    geom = MultiLaurent(
        p.nvars,
        {tuple(-2 * a if j == i - 1 else 0 for j in range(p.nvars)): 1 for a in range(depth + 1)},
    )
    return p * geom
