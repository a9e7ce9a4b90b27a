"""Multivariable Laurent polynomials with half-integer exponents.

Exponents live in (1/2)Z per variable and are stored doubled, as plain
integers, so every computation stays in exact integer arithmetic.
Coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
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


class MultiLaurent:
    """A Laurent polynomial in ``nvars`` variables T_1..T_n.

    ``terms`` maps doubled exponent vectors to nonzero integer
    coefficients; the zero polynomial has no terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Expo, int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        clean: dict[Expo, int] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong length for {nvars} variables")
            if c:
                clean[e] = clean.get(e, 0) + int(c)
                if not clean[e]:
                    del clean[e]
        self.terms = clean

    # ---- ring structure ----

    def __add__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return MultiLaurent(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiLaurent":
        return MultiLaurent(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "MultiLaurent":
        return self._coerce(other) - self

    def __mul__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, int):
            return MultiLaurent(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[Expo, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiLaurent(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, MultiLaurent):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MultiLaurent(self.nvars, {(0,) * self.nvars: int(other)})

    # ---- involution and support ----

    def bar(self) -> "MultiLaurent":
        """The involution T_i -> T_i^{-1} on every variable."""
        return MultiLaurent(self.nvars, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def support(self) -> list[Expo]:
        return sorted(self.terms)

    def shift(self, e2: Iterable[int]) -> "MultiLaurent":
        """Multiply by the monomial with doubled exponent vector ``e2``."""
        u = tuple(int(x) for x in e2)
        if len(u) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return MultiLaurent(self.nvars, {tuple(a + b for a, b in zip(e, u)): c for e, c in self.terms.items()})

    def restrict(self, floor2: Iterable[int]) -> "MultiLaurent":
        """Drop terms with any doubled exponent below the given floor."""
        f = tuple(int(x) for x in floor2)
        return MultiLaurent(
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
        return cls(int(d["l"]), {tuple(t["e2"]): int(t["c"]) for t in d["terms"]})


def fmt_half(x2: int) -> str:
    """The half-integer x2/2, written as an integer when x2 is even."""
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def zero(nvars: int) -> MultiLaurent:
    return MultiLaurent(nvars, {})


def one(nvars: int) -> MultiLaurent:
    return MultiLaurent(nvars, {(0,) * nvars: 1})


def monomial(nvars: int, e2: Iterable[int], c: int = 1) -> MultiLaurent:
    return MultiLaurent(nvars, {tuple(int(x) for x in e2): c})


def spin_product(nvars: int) -> MultiLaurent:
    """Return prod_i (T_i^{1/2} - T_i^{-1/2}) in ``nvars`` variables.

    The product has 2^nvars terms with coefficients +-1 and half-integer
    exponents throughout.
    """
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
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
    coefficient is returned.  Raises ValueError when no unit multiple
    is symmetric either way.
    """
    if not p:
        return p
    supp = p.support()
    lo = supp[0]
    blo = sorted(p.bar().terms)[0]
    v = tuple(b - a for a, b in zip(lo, blo))
    if any(x % 2 for x in v):
        raise ValueError("no symmetric unit multiple exists (odd lattice offset)")
    u = tuple(x // 2 for x in v)
    g = p.shift(u)
    if g.bar() != g and g.bar() != -g:
        raise ValueError("no symmetric unit multiple exists")
    if g.terms[max(g.terms)] < 0:
        g = -g
    return g


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
    if not 1 <= i <= p.nvars:
        raise ValueError("variable index out of range")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    geom = MultiLaurent(
        p.nvars,
        {tuple(-2 * a if j == i - 1 else 0 for j in range(p.nvars)): 1 for a in range(depth + 1)},
    )
    return p * geom
