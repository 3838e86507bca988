"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream computes in the fixed polynomial ring

    Q[d, l, m, g, b]

where ``d`` is the module generator (partial), ``l``, ``m``, ``g`` are the
three spectral variables (lambda, mu, gamma) and ``b`` is the structure
parameter of the two-family loop algebras.  The variable set is closed: no
identity in scope needs anything else, and the fixed arity keeps a monomial
a plain 5-tuple of exponents.

A ``Poly`` maps monomials to nonzero coefficients, each an ``int`` or a
``Fraction`` and never a ``float``, compared by value; the zero polynomial
is the empty map.  Integral values enter as ``int``, so all-integer
tables compute on machine-size integers, and the numeric tower keeps the
mix canonical: ``3 == Fraction(3)``, their hashes agree and both print as
``3``.  Coefficients are exact, so equality is exact and "residual == 0"
is a decidable check.
Values are immutable after construction and every operation is a pure
function; they may be shared freely between threads.  The one thing a
value fills after construction is its private memo of d-substitutions
(``_subst_d``, the slot rule's p(-s) and q(d+s)): a cache of pure results
that never shows in ==, hash, str or ``terms``.  Filling it is idempotent,
so two threads filling it at once only repeat the work.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class Var(Enum):
    """The five formal variables, in canonical order d > l > m > g > b."""

    D = "d"
    L = "l"
    M = "m"
    G = "g"
    B = "b"

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def slot(self) -> int:
        """Position of this variable in a monomial exponent tuple."""
        return _SLOTS[self]


_SLOTS = {Var.D: 0, Var.L: 1, Var.M: 2, Var.G: 3, Var.B: 4}

VARS = (Var.D, Var.L, Var.M, Var.G, Var.B)

# Variables allowed to carry a bracket's spectral parameter.
SPECTRAL_VARS = (Var.L, Var.M, Var.G)

# A monomial is a 5-tuple of non-negative exponents, one slot per Var.
Monomial = tuple

UNIT_MONOMIAL: Monomial = (0, 0, 0, 0, 0)

_UNIT_TERMS = {UNIT_MONOMIAL: 1}


def _as_scalar(value: Scalar) -> Scalar:
    """The coefficient form of value: an int if it is integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def exact_scalar(value: Scalar, error: type[Exception], name: str) -> Scalar:
    """value as _as_scalar stores it; a bool, float, str or anything else
    that is not an int or a Fraction raises ``error``, naming ``name``.

    Every scalar argument of the Python API passes through here, so a
    float cannot turn into a binary rational on its way in.
    """
    try:
        return _as_scalar(value)
    except TypeError:
        raise error(f"{name} must be an int or a Fraction, "
                    f"got {type(value).__name__}") from None


class Poly:
    """Immutable sparse polynomial in Q[d, l, m, g, b].

    ``terms`` maps exponent 5-tuples to nonzero coefficients, each an int
    or a Fraction (never a float), compared by value.  Construction drops
    zero coefficients, so two equal polynomials always have equal term
    maps (canonical form).
    """

    __slots__ = ("terms", "_hash", "_memo")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                # an int exponent, not a bool or a float: 0.5 would square
                # to d, and 1.0 hash like it
                if len(mono) != 5 or any(type(e) is not int or e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono!r}")
                c = _as_scalar(coeff)
                if c:
                    clean[tuple(mono)] = c
        self.terms = clean
        self._hash = None
        self._memo = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar]) -> "Poly":
        # Internal constructor: terms must already be canonical.
        p = object.__new__(cls)
        p.terms = terms
        p._hash = None
        p._memo = None
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return ZERO

    @classmethod
    def one(cls) -> "Poly":
        return ONE

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        c = _as_scalar(value)
        return cls._raw({UNIT_MONOMIAL: c}) if c else ZERO

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        return _VAR_POLYS[var]

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def variables(self) -> tuple[Var, ...]:
        """Variables that actually occur, in slot order."""
        used = [False] * 5
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
        return tuple(v for v in VARS if used[v.slot])

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(other)
        return None

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = -c
            else:
                s = s - c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._raw(out)

    def __rsub__(self, other) -> "Poly":
        return as_poly(other) - self

    def __neg__(self) -> "Poly":
        return Poly._raw({mono: -c for mono, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.terms, other.terms
            if not a or not b:
                return ZERO
            # Poly is immutable, so a product with the unit is the other
            # operand itself; compared by value, Poly.const(1) qualifies.
            if a == _UNIT_TERMS:
                return other
            if b == _UNIT_TERMS:
                return self
            out: dict[Monomial, Scalar] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2],
                            m1[3] + m2[3], m1[4] + m2[4])
                    s = out.get(mono)
                    out[mono] = c1 * c2 if s is None else s + c1 * c2
            return Poly._raw({m: c for m, c in out.items() if c})
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        c = _as_scalar(other)
        if not c:
            return ZERO
        return Poly._raw({mono: coeff * c for mono, coeff in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if exponent == 0:
            return ONE
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    # -- substitution and coefficient extraction --------------------------

    def subst(self, assignments: Mapping[Var, "Poly | Scalar"]) -> "Poly":
        """Simultaneously replace variables by polynomials.

        Variables absent from ``assignments`` are left alone.  This is a
        ring homomorphism: subst distributes over + and *.

        Each term c * x^mono becomes c * x^rest * prod(replacement ** e),
        e its exponents in the substituted slots (one power per (slot, e)),
        expanded straight into one output dict: a sum of Polys would copy
        the growing sum once per term.
        """
        if not assignments or not self.terms:
            return self
        amap = {var.slot: as_poly(value) for var, value in assignments.items()}
        if not any(mono[slot] for mono in self.terms for slot in amap):
            return self
        powers: dict[tuple[int, int], Poly] = {}
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            rest = list(mono)
            product = ONE
            for slot, replacement in amap.items():
                e = mono[slot]
                if e:
                    rest[slot] = 0
                    power = powers.get((slot, e))
                    if power is None:
                        power = powers[(slot, e)] = replacement ** e
                    product = product * power
            r0, r1, r2, r3, r4 = rest
            for (s0, s1, s2, s3, s4), c2 in product.terms.items():
                target = (r0 + s0, r1 + s1, r2 + s2, r3 + s3, r4 + s4)
                s = out.get(target)
                out[target] = coeff * c2 if s is None else s + coeff * c2
        return Poly._raw({m: c for m, c in out.items() if c})

    def _subst_d(self, replacement: "Poly") -> "Poly":
        """self with d replaced by replacement, memoized on self.

        The slot rule substitutes each operand coefficient at d -> -s and
        d -> d + s for the few spectral parameters s of a sweep, many
        times over; the memo maps each replacement to its result.  A
        coefficient without d is its own substitution: it is marked
        _D_FREE and gets no entry.  The module constants never get one
        either, so a memo lives and dies with its operand.
        """
        memo = self._memo
        if memo is _D_FREE:
            return self
        if memo:
            out = memo.get(replacement)
            if out is not None:
                return out
        out = self.subst({Var.D: replacement})
        if memo is None:
            if out is self:
                self._memo = _D_FREE
            else:
                self._memo = {replacement: out}
        elif memo is not _SHARED:
            memo[replacement] = out
        return out

    # -- comparison and printing ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __str__(self) -> str:
        """Canonical form: graded lexicographic order, d > l > m > g > b.

        The output conforms to the parse_poly grammar, and
        parse_poly(str(p)) == p.
        """
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda mo: (sum(mo), mo), reverse=True)
        parts = []
        for mono in monos:
            coeff = self.terms[mono]
            magnitude = -coeff if coeff < 0 else coeff
            factors = []
            if magnitude != 1 or not any(mono):
                factors.append(str(magnitude))
            for var in VARS:
                factors.extend([var.symbol] * mono[var.slot])
            text = "*".join(factors)
            if not parts:
                parts.append(text if coeff > 0 else "-" + text)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def as_poly(value) -> Poly:
    """Coerce an int or Fraction to a constant polynomial."""
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


ZERO = Poly._raw({})
ONE = Poly._raw({UNIT_MONOMIAL: 1})

_VAR_POLYS = {
    var: Poly._raw({tuple(1 if i == var.slot else 0 for i in range(5)): 1})
    for var in VARS
}

# Memos that stay empty: _D_FREE marks a polynomial without d, which
# every d-substitution leaves as it is, and _SHARED the variable d, a
# module constant that outlives every sweep substituting into it.
_D_FREE = MappingProxyType({})
_SHARED = MappingProxyType({})
for _constant in (ZERO, ONE, *_VAR_POLYS.values()):
    _constant._memo = _SHARED if _constant is _VAR_POLYS[Var.D] else _D_FREE
del _constant

# Convenience instances for building expressions in code: D + 2 * L etc.
D = _VAR_POLYS[Var.D]
L = _VAR_POLYS[Var.L]
M = _VAR_POLYS[Var.M]
G = _VAR_POLYS[Var.G]
B = _VAR_POLYS[Var.B]


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGITS = "0123456789"
_VAR_BY_SYMBOL = {v.value: v for v in VARS}

# Deepest nesting of "(" and unary "-" the recursive-descent parser
# accepts; each level costs up to three Python frames.
MAX_NESTING = 100


def parse_poly(text: str) -> Poly:
    """Parse the expression grammar used by every file format here.

        expr     := term (("+"|"-") term)*
        term     := factor ("*" factor)*
        factor   := rational | var | "(" expr ")" | "-" factor
        rational := integer ("/" positive-integer)?
        var      := "d" | "l" | "m" | "g" | "b"

    Whitespace is insignificant.  A "/" anywhere but inside a rational
    constant is rejected, as is any identifier other than the five
    variables, an integer too long to convert, and nesting of "(" and
    unary "-" deeper than MAX_NESTING.  str() on the result emits this
    same grammar.
    """
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.expect_end()
    return value


def parse_rational(text: str) -> Scalar:
    """Parse a signed rational constant: an optional "-", then the
    ``rational`` of the parse_poly grammar, e.g. "7" or "-3/2".

    Anything else, exponent notation and decimals included, raises
    ParseError, so the value is never larger than its text.  Returns an
    int when the value is integral, else a Fraction.
    """
    parser = _Parser(text)
    negative = parser.peek() == "-"
    if negative:
        parser.pos += 1
    ch = parser.peek()
    if not ch or ch not in _DIGITS:
        raise ParseError("expected a rational constant such as 7 or -3/2", parser.pos)
    value = _as_scalar(parser.parse_rational())
    parser.expect_end()
    return -value if negative else value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        text, n = self.text, len(self.text)
        pos = self.pos
        while pos < n and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < n else ""

    def expect_end(self) -> None:
        if self.peek():
            raise ParseError(f"unexpected character {self.peek()!r}", self.pos)

    def parse_expr(self) -> Poly:
        value = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> Poly:
        value = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.parse_factor()
            elif ch == "/":
                raise ParseError(
                    "division is only allowed inside a rational constant", self.pos)
            else:
                return value

    def parse_factor(self) -> Poly:
        ch = self.peek()
        if not ch:
            raise ParseError("unexpected end of input", self.pos)
        if ch in "-(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                                 self.pos)
            self.depth += 1
            self.pos += 1
            if ch == "-":
                value = -self.parse_factor()
            else:
                value = self.parse_expr()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
            self.depth -= 1
            return value
        if ch in _DIGITS:
            return Poly.const(self.parse_rational())
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start:self.pos]
            var = _VAR_BY_SYMBOL.get(name)
            if var is None:
                raise ParseError(f"unknown identifier {name!r}", start)
            return Poly.variable(var)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def parse_rational(self) -> Scalar:
        numerator = self.parse_integer()
        if self.peek() == "/":
            self.pos += 1
            denom_pos = self.pos
            if self.peek() not in _DIGITS:
                raise ParseError("expected a positive integer denominator", self.pos)
            denominator = self.parse_integer()
            if denominator == 0:
                raise ParseError("denominator must be positive", denom_pos)
            return Fraction(numerator, denominator)
        return numerator

    def parse_integer(self) -> int:
        text, n = self.text, len(self.text)
        start = self.pos
        pos = start
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        self.pos = pos
        try:
            return int(text[start:pos])
        except ValueError:
            raise ParseError(f"integer constant longer than "
                             f"{sys.get_int_max_str_digits()} digits", start) from None
