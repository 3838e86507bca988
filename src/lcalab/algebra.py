"""Z_m-graded Lie conformal algebras presented by bracket tables.

An algebra has a finite set of generator families; each family contributes
one generator per residue class mod m.  The bracket of two generators is a
per-family-pair rule: a single coefficient polynomial c(d, l, b) attached
to a target family, with indices adding mod m,

    [x_i lambda y_j] = c(d, l, b) * target_{i+j mod m}.

The rules are expanded once, at construction, into ``Algebra.table``: the
bracket on every generator pair.  One kernel, ``slot_eval``, evaluates any
such generator-pair table on general module elements by the
sesquilinearity slot rule: a coefficient p(d) in the left slot enters as
p(-lambda), one in the right slot as q(d + lambda).  The bracket is that
kernel on the algebra's own table; conformal bilinear maps (``bimaps``)
are the same kernel on theirs.  Spectral variables already present in
coefficients pass through untouched, which is what makes nested brackets
(Jacobi, Leibniz, and friends) straightforward residual computations.

A table value's l is renamed to the spectral parameter s once per table
and s, not per evaluation: each table owner (an Algebra or a bimaps
BilinearMap) keeps the renamed copies, s -> table, together with -s and
d + s, filled on first use.  The slot substitutions p(-s) and q(d+s) of
an operand coefficient are memoized on the coefficient itself
(poly.Poly._subst_d).  Tables are therefore read-only after
construction; an owner exposes its table as a read-only view.  An
algebra's table is capped at MAX_TABLE_ENTRIES generator pairs, and a
residual sweep at MAX_SWEEP_RESIDUALS residuals.  Skew-symmetry and
Jacobi are def1a and def1b of the bracket itself (bimaps' inner map,
t = 1), so check_axioms is bimaps.verify_map of that map on those tags.

Index reduction mod m is a ring map on indices, so all axioms survive the
quotient; m = 1 recovers the non-loop algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .poly import (
    ParseError,
    Poly,
    Scalar,
    SPECTRAL_VARS,
    Var,
    ZERO,
    as_poly,
    exact_scalar,
    parse_poly,
    parse_rational,
)


# Largest generator-pair table an Algebra builds: (families * modulus)**2
# entries.  clw reaches it at m = 100, cw at m = 200.
MAX_TABLE_ENTRIES = 40_000

# Most residuals one sweep (check_axioms, bimaps.verify_map) checks.  The
# sweep that evaluates every tuple, that of a map that is not
# index-equivariant, took 2.2 s (two runs, Python 3.11, a shared 2-CPU
# Linux host) on 864,900 residuals: CLW(m=15) at symbolic b, all
# tags, clw_shift (shift 1, a = 7/3) with the target of its (L:0, L:0)
# value moved by one.  An equivariant map evaluates one tuple per family
# tuple, but may still fail at every tuple, so the cap also bounds the
# failure list.
MAX_SWEEP_RESIDUALS = 1_000_000


class AlgebraError(ValueError):
    """Invalid algebra definition, element, or evaluation request."""


class GeneratorId(NamedTuple):
    """A graded generator: family name plus index reduced mod m.

    A tuple, so it hashes and compares in C, and equals the plain tuple
    (family, index); print orders go through Algebra.gen_sort_key.
    """

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}:{self.index}"


def parse_generator(text: str) -> tuple[str, int]:
    """Split a "family:index" generator string at its last ":", so a
    family name may hold ":" (GeneratorId prints "A:B:0" for family "A:B").

    The index is an optional "-" and ASCII digits, the integer rule of
    parse_rational: "L:-1" is valid, "L:+1", "L: 1" and "L:1_0" are not.
    """
    if not isinstance(text, str):
        raise AlgebraError(f"bad generator {text!r}, expected a \"family:index\" string")
    family, sep, index = text.rpartition(":")
    if not sep or not family:
        raise AlgebraError(f"bad generator {text!r}, expected \"family:index\"")
    digits = index[1:] if index.startswith("-") else index
    if digits.isascii() and digits.isdigit():
        try:
            return family, int(index)
        except ValueError:  # more digits than int() reads
            pass
    raise AlgebraError(f"bad generator index in {text!r}")


class Element:
    """Finite formal sum of polynomial coefficients on graded generators."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Algebra", terms: Mapping[GeneratorId, Poly | Scalar] | None = None):
        clean: dict[GeneratorId, Poly] = {}
        if terms:
            for gid, coeff in terms.items():
                gid = algebra.gen_of(gid)
                poly = as_poly(coeff)
                if poly.is_zero:
                    continue
                prev = clean.get(gid)
                poly = poly if prev is None else prev + poly
                if poly.is_zero:
                    clean.pop(gid, None)
                else:
                    clean[gid] = poly
        self.algebra = algebra
        self.terms = clean

    @classmethod
    def _raw(cls, algebra: "Algebra", terms: dict[GeneratorId, Poly]) -> "Element":
        e = object.__new__(cls)
        e.algebra = algebra
        e.terms = terms
        return e

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_algebra(self, other: "Element") -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraError("mismatched algebras")

    def _combine(self, other: "Element", subtract: bool) -> "Element":
        self._require_same_algebra(other)
        out = dict(self.terms)
        for gid, coeff in other.terms.items():
            s = out.get(gid)
            if s is None:
                s = -coeff if subtract else coeff
            else:
                s = s - coeff if subtract else s + coeff
            if s.is_zero:
                out.pop(gid, None)
            else:
                out[gid] = s
        return Element._raw(self.algebra, out)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, False)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, True)

    def __neg__(self) -> "Element":
        return Element._raw(self.algebra, {g: -c for g, c in self.terms.items()})

    def __mul__(self, factor) -> "Element":
        """Module action: multiply every coefficient by a Poly or scalar."""
        poly = as_poly(factor)
        if poly.is_zero:
            return Element._raw(self.algebra, {})
        return Element._raw(self.algebra, {g: c * poly for g, c in self.terms.items()})

    __rmul__ = __mul__

    def subst_coeffs(self, assignments: Mapping[Var, Poly | Scalar]) -> "Element":
        out = {}
        for gid, coeff in self.terms.items():
            c = coeff.subst(assignments)
            if not c.is_zero:
                out[gid] = c
        return Element._raw(self.algebra, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.algebra is other.algebra or self.algebra == other.algebra) \
            and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        gens = sorted(self.terms, key=self.algebra.gen_sort_key)
        return " + ".join(f"({self.terms[g]})*{g}" for g in gens)

    def __repr__(self) -> str:
        return f"Element({self})"


@dataclass(frozen=True)
class BracketRule:
    """Bracket of one ordered family pair: coeff on target_{i+j mod m}.

    ``target is None`` means the bracket of this pair is identically zero,
    so its coefficient must be zero once Algebra has substituted b.  The
    coefficient may use only d, l and b.
    """

    left: str
    right: str
    target: Optional[str]
    coeff: Poly


# The variables of a table coefficient, in bracket rules and map tables alike.
TABLE_VARS = frozenset({Var.D, Var.L, Var.B})


class Algebra:
    """A Z_m-graded Lie conformal algebra given by its bracket table.

    ``b`` controls the structure parameter: None keeps it symbolic (it
    stays a polynomial variable through every computation), an int or a
    Fraction substitutes it out of every rule coefficient at construction
    time; any other type raises AlgebraError.

    The algebra holds its bracket table as dicts of coefficients, not as
    Elements, which refer to their algebra: so an algebra, its renamed
    tables and the memos of their coefficients hold no reference cycle
    and are freed by reference counting once out of use.  (With the
    cycle, 20 CLI runs of check-axioms on CLW(m=6) in one process peaked
    at 18.4 MB RSS, 0.85 MB above the same runs with a gc.collect() after
    each.)  ``table`` builds the Element view on each access.
    """

    def __init__(self, name: str, modulus: int, families: Sequence[str],
                 rules: Iterable[BracketRule], b: Scalar | None = None):
        if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 1:
            raise AlgebraError(f"modulus must be a positive integer, got {modulus!r}")
        families = tuple(families)
        if not families or len(set(families)) != len(families) or not all(families):
            raise AlgebraError("families must be a nonempty list of distinct names")
        entries = (len(families) * modulus) ** 2
        if entries > MAX_TABLE_ENTRIES:
            raise AlgebraError(f"generator-pair table of {entries} entries ({len(families)} "
                               f"families, modulus {modulus}) exceeds the cap of "
                               f"{MAX_TABLE_ENTRIES}")
        b_value = None if b is None else Fraction(exact_scalar(b, AlgebraError, "b"))

        table: dict[tuple[str, str], BracketRule] = {}
        for rule in rules:
            for fam in (rule.left, rule.right):
                if fam not in families:
                    raise AlgebraError(f"unknown family {fam!r} in rule")
            if rule.target is not None and rule.target not in families:
                raise AlgebraError(f"unknown target family {rule.target!r} in rule "
                                   f"({rule.left},{rule.right})")
            key = (rule.left, rule.right)
            if key in table:
                raise AlgebraError(f"duplicate rule for pair ({rule.left},{rule.right})")
            coeff = rule.coeff
            if any(v not in TABLE_VARS for v in coeff.variables()):
                raise AlgebraError(f"rule ({rule.left},{rule.right}): coefficient may "
                                   f"use only d, l, b")
            if b_value is not None:
                coeff = coeff.subst({Var.B: b_value})
            if rule.target is None and not coeff.is_zero:
                raise AlgebraError(f"rule ({rule.left},{rule.right}): a null target "
                                   f"needs a zero coefficient")
            target = rule.target if not coeff.is_zero else None
            table[key] = BracketRule(rule.left, rule.right, target,
                                     coeff if target is not None else ZERO)
        for lf in families:
            for rf in families:
                table.setdefault((lf, rf), BracketRule(lf, rf, None, ZERO))

        self.name = name
        self.modulus = modulus
        self.families = families
        self.b_value = b_value
        self._rules = table
        # Every generator id keyed by itself, so gen finds an in-range
        # (family, index) pair, GeneratorId or plain tuple, by one lookup.
        self._gens = {g: g for g in (GeneratorId(f, i) for f in families
                                     for i in range(modulus))}
        # The bracket on generator pairs in the form slot_eval reads, the
        # terms of each value: (x_i, y_j) -> {target_{i+j mod m}: coeff},
        # empty if zero.  Plain dicts, not Elements: an Element refers to
        # its algebra, so a table of them would make every algebra a
        # reference cycle, kept alive until the cyclic collector runs.
        gens = self.generators()
        self._table: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, Poly]] = {}
        for gi in gens:
            for gj in gens:
                rule = table[(gi.family, gj.family)]
                self._table[(gi, gj)] = {} if rule.target is None else \
                    {GeneratorId(rule.target, (gi.index + gj.index) % modulus): rule.coeff}
        self._renamed: dict = {}

    @property
    def table(self) -> Mapping[tuple[GeneratorId, GeneratorId], Element]:
        """Read-only view of the bracket on generator pairs, an Element per
        pair (an empty one if zero), built on each access."""
        return MappingProxyType({pair: Element._raw(self, terms)
                                 for pair, terms in self._table.items()})

    # -- structure access --------------------------------------------------

    def rule(self, left_family: str, right_family: str) -> BracketRule:
        try:
            return self._rules[(left_family, right_family)]
        except KeyError:
            raise AlgebraError(f"unknown family pair ({left_family},{right_family})") from None

    def rules(self) -> list[BracketRule]:
        order = {f: i for i, f in enumerate(self.families)}
        return sorted(self._rules.values(), key=lambda r: (order[r.left], order[r.right]))

    def gen(self, family: str, index: int) -> GeneratorId:
        # Only an int may take the lookup: 1.0, True, Fraction(1) equal 1.
        gid = self._gens.get((family, index)) if type(index) is int else None
        if gid is None:
            if family not in self.families:
                raise AlgebraError(f"unknown family {family!r}")
            if isinstance(index, bool) or not isinstance(index, int):
                raise AlgebraError(f"generator index must be an int, got {index!r}")
            gid = GeneratorId(family, index % self.modulus)
        return gid

    def gen_of(self, key) -> GeneratorId:
        """gen(*key) for a (family, index) pair, a GeneratorId or a plain
        tuple; anything else raises AlgebraError."""
        try:
            return self.gen(*key)
        except TypeError:
            raise AlgebraError(f"bad generator {key!r}, expected a (family, index) "
                               f"pair") from None

    def generators(self) -> list[GeneratorId]:
        return list(self._gens)

    def gen_sort_key(self, gid: GeneratorId):
        return (self.families.index(gid.family), gid.index)

    # -- element constructors ----------------------------------------------

    def element(self, terms: Mapping[GeneratorId, Poly | Scalar]) -> Element:
        return Element(self, terms)

    def gen_element(self, gid: GeneratorId | tuple[str, int]) -> Element:
        return Element._raw(self, {self.gen(*gid): Poly.one()})

    def zero_element(self) -> Element:
        return Element._raw(self, {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.name == other.name and self.modulus == other.modulus
                and self.families == other.families and self.b_value == other.b_value
                and self._rules == other._rules)

    def __repr__(self) -> str:
        return f"Algebra({self.name})"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _spectral_poly(spectral: Union[Var, Poly]) -> Poly:
    if isinstance(spectral, Var):
        if spectral not in SPECTRAL_VARS:
            raise AlgebraError("spectral variable must be one of l, m, g")
        return Poly.variable(spectral)
    if isinstance(spectral, Poly):
        if any(v not in SPECTRAL_VARS for v in spectral.variables()):
            raise AlgebraError("spectral parameter may use only l, m, g")
        return spectral
    raise TypeError(f"bad spectral parameter {spectral!r}")


_D = Poly.variable(Var.D)
_L = Poly.variable(Var.L)

# A generator-pair table as slot_eval reads it: the terms of each value.
Table = Mapping[tuple[GeneratorId, GeneratorId], Mapping[GeneratorId, Poly]]


def _renamed_table(table: Table, renamed: dict, spectral: Union[Var, Poly]) -> tuple:
    """The owner's cache entry of a spectral parameter: (table with the l
    of every value renamed to s, -s, d + s).

    ``renamed`` is the table owner's cache, filled here on first use: s is
    validated once, and the entry is stored under s and under the
    argument as given (a Var or a Poly), so that later calls with either
    find it without validating or building -s and d + s again.  For s = l
    the renamed table is the table itself.  Equal coefficients share one
    renamed copy, equal values one renamed terms dict (a bracket table has
    one value per target, not per pair), and pairs whose value is or
    becomes zero are left out.  The cache is only valid because tables
    are never written after construction; filling it is idempotent, so
    two threads filling it at once only repeat the work.
    """
    s = _spectral_poly(spectral)
    entry = renamed.get(s)
    if entry is None:
        if s == _L:
            out = table
        else:
            coeffs: dict[Poly, Poly] = {}
            values: dict[tuple, dict[GeneratorId, Poly]] = {}
            out = {}
            for pair, value in table.items():
                key = tuple(value.items())
                new = values.get(key)
                if new is None:
                    new = values[key] = {}
                    for gt, c in value.items():
                        r = coeffs.get(c)
                        if r is None:
                            r = coeffs[c] = c.subst({Var.L: s})
                        if not r.is_zero:
                            new[gt] = r
                if new:
                    out[pair] = new
        entry = renamed[s] = (out, -s, _D + s)
    renamed[spectral] = entry
    return entry


def slot_eval(table: Table, renamed: dict, x: Element, y: Element,
              spectral: Union[Var, Poly] = Var.L) -> Element:
    """Evaluate a generator-pair table on x, y by the sesquilinearity slot rule.

    For x = p(d) e_i and y = q(d) e_j the result is
    p(-s) * q(d+s) * table[e_i, e_j] with the value's l renamed to s,
    extended bilinearly; absent pairs are zero.  s may itself be a
    polynomial in the spectral variables (needed for the nested
    identities, e.g. l+m).  Each substitution is done once per table
    owner or operand and s, not per evaluation: ``renamed`` is the owner's
    cache of renamed tables and of -s and d + s (see _renamed_table), so
    the table must not change after its first evaluation; and each
    operand coefficient keeps p(-s) and q(d+s) in its own memo
    (Poly._subst_d), which dies with the operand.  Callers check that x
    and y belong to the table's algebra.
    """
    entry = renamed.get(spectral)
    if entry is None:
        entry = _renamed_table(table, renamed, spectral)
    table, neg_s, d_plus_s = entry
    acc: dict[GeneratorId, Poly] = {}
    for gi, p in x.terms.items():
        pw = p._subst_d(neg_s)
        if pw.is_zero:
            continue
        for gj, q in y.terms.items():
            value = table.get((gi, gj))
            if not value:
                continue
            factor = pw * q._subst_d(d_plus_s)
            if factor.is_zero:
                continue
            for gt, c in value.items():
                coeff = factor * c
                if coeff.is_zero:
                    continue
                prev = acc.get(gt)
                acc[gt] = coeff if prev is None else prev + coeff
    return Element._raw(x.algebra, {g: c for g, c in acc.items() if not c.is_zero})


def bracket(x: Element, y: Element, spectral: Union[Var, Poly] = Var.L) -> Element:
    """Evaluate [x_s y]: the algebra's own table under the slot rule."""
    x._require_same_algebra(y)
    alg = x.algebra
    return slot_eval(alg._table, alg._renamed, x, y, spectral)


def second_slot_subst(e: Element, spectral: Var = Var.L) -> Element:
    """Replace the spectral variable by -d - spectral in every coefficient.

    This realizes the skew move: the d here is the ordinary polynomial
    variable acting on coefficients.  Applying it twice is the identity.
    """
    if spectral not in SPECTRAL_VARS:
        raise AlgebraError("spectral variable must be one of l, m, g")
    replacement = -Poly.variable(Var.D) - Poly.variable(spectral)
    return e.subst_coeffs({spectral: replacement})


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

_AXIOM_NAMES = {"def1a": "skew", "def1b": "jacobi"}


@dataclass
class AxiomReport:
    """The failing skew and Jacobi residuals of a bracket table, under the
    axioms' names: the def1a and def1b failures of check_axioms' sweep."""

    algebra: str
    checked: dict[str, int]
    residuals: list  # the failing bimaps.Residuals, ordered by (tag, tuple)

    @property
    def passed(self) -> bool:
        return not self.residuals

    def failures(self) -> list[tuple[str, tuple, Element]]:
        return [(_AXIOM_NAMES[r.tag], r.args, r.value) for r in self.residuals]

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "checked": dict(self.checked),
            "failures": [
                {"identity": kind, "args": [str(g) for g in args], "residual": str(r)}
                for kind, args, r in self.failures()
            ],
        }

    def to_text(self) -> str:
        lines = [f"algebra {self.algebra}"]
        lines += [f"{kind} residuals: {n} checked" for kind, n in self.checked.items()]
        for kind, args, r in self.failures():
            lines.append(f"FAIL {kind} ({', '.join(str(g) for g in args)}): {r}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def check_axioms(algebra: Algebra) -> AxiomReport:
    """Residual check of skew-symmetry and the Jacobi identity.

    Sesquilinearity is built into evaluation, so these two residual
    families are exactly what can fail in a bracket table.  For the inner
    map phi = [._l .] they are def1a, [x_l y] + ([y_l x] with l -> -d-l),
    and def1b, [x_l [y_m z]] - [[x_l y]_{l+m} z] - [y_m [x_l z]], so the
    check is bimaps.verify_map of that map on those tags.  The n^2 + n^3
    residuals of n generators are counted against MAX_SWEEP_RESIDUALS
    before any is evaluated.
    """
    from . import bimaps  # imported here: bimaps imports this module
    n = len(algebra.generators())
    count = n ** 2 + n ** 3
    if count > MAX_SWEEP_RESIDUALS:
        raise AlgebraError(f"axiom check of {count} residuals ({n} generators) "
                           f"exceeds the cap of {MAX_SWEEP_RESIDUALS}")
    report = bimaps.verify_map(bimaps.make_family(algebra, "inner"), ("def1a", "def1b"))
    return AxiomReport(algebra.name, {"skew": n ** 2, "jacobi": n ** 3}, report.failures)


# ---------------------------------------------------------------------------
# Catalog and file loading
# ---------------------------------------------------------------------------

def make_catalog(kind: str, m: int = 1, b: Scalar | None = None) -> Algebra:
    """Built-in bracket tables.

    kind "vir": rank one, single family L with [L_l L] = (d+2l)L; m must
    be 1.  kind "cw": the loop version, one family L per residue class
    mod m.  kind "clw": two families L, G with parameter b; b = None keeps
    it symbolic, a Fraction instantiates it.
    """
    d, lam, bb = Poly.variable(Var.D), Poly.variable(Var.L), Poly.variable(Var.B)
    if kind == "vir":
        vir = Algebra("Vir", m, ["L"], [BracketRule("L", "L", "L", d + 2 * lam)])
        if vir.modulus != 1:
            raise AlgebraError("vir is rank one; use kind 'cw' for m > 1")
        if b is not None:
            raise AlgebraError("b is only accepted for kind 'clw'")
        return vir
    if kind == "cw":
        if b is not None:
            raise AlgebraError("b is only accepted for kind 'clw'")
        return Algebra(f"CW(m={m})", m, ["L"],
                       [BracketRule("L", "L", "L", d + 2 * lam)])
    if kind == "clw":
        b_text = "symbolic" if b is None else str(exact_scalar(b, AlgebraError, "b"))
        rules = [
            BracketRule("L", "L", "L", d + 2 * lam),
            BracketRule("L", "G", "G", d + lam - bb * lam),
            BracketRule("G", "L", "G", -(bb * d + (bb - 1) * lam)),
            BracketRule("G", "G", None, ZERO),
        ]
        return Algebra(f"CLW(m={m}, b={b_text})", m, ["L", "G"], rules, b=b)
    raise AlgebraError(f"unknown catalog kind {kind!r}; expected vir, cw or clw")


def algebra_from_dict(data: dict) -> Algebra:
    """Build an Algebra from the JSON definition format.

    {"name": str, "modulus": int, "families": [str],
     "b": "symbolic" | "p/q" | int,
     "rules": [{"left": str, "right": str, "target": str|null,
                "coeff": expr-string}]}

    A string b other than "symbolic" is read by parse_rational ("7",
    "-3/2"; no exponent notation).  Coefficient expressions use the d/l/b
    subset of the expression grammar.  Pairs without a rule get the zero
    bracket.  The loaded table is validated structurally only; run
    check_axioms separately.
    """
    if not isinstance(data, dict):
        raise AlgebraError("algebra definition must be a JSON object")
    try:
        name = data["name"]
        modulus = data["modulus"]
        families = data["families"]
        raw_rules = data["rules"]
    except KeyError as exc:
        raise AlgebraError(f"algebra definition missing key {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise AlgebraError("name must be a string")
    if not isinstance(families, list) or not all(isinstance(f, str) for f in families):
        raise AlgebraError("families must be a list of strings")

    b_raw = data.get("b", "symbolic")
    bad_b = (f"bad b value {b_raw!r}, expected \"symbolic\", a rational string "
             f"such as \"-3/2\" or an integer")
    if b_raw == "symbolic":
        b = None
    elif isinstance(b_raw, int) and not isinstance(b_raw, bool):
        b = b_raw
    elif not isinstance(b_raw, str):
        raise AlgebraError(bad_b)
    else:
        try:
            b = parse_rational(b_raw)
        except ParseError as exc:
            raise AlgebraError(f"{bad_b} ({exc})") from None

    if not isinstance(raw_rules, list):
        raise AlgebraError("rules must be a list")
    rules = []
    for entry in raw_rules:
        if not isinstance(entry, dict):
            raise AlgebraError("each rule must be a JSON object")
        try:
            left, right = entry["left"], entry["right"]
            target, coeff_text = entry["target"], entry["coeff"]
        except KeyError as exc:
            raise AlgebraError(f"rule missing key {exc.args[0]!r}") from None
        if not isinstance(coeff_text, str):
            raise AlgebraError(f"rule ({left},{right}): coeff must be a string")
        try:
            coeff = parse_poly(coeff_text)
        except ParseError as exc:
            raise AlgebraError(f"rule ({left},{right}): {exc}") from None
        rules.append(BracketRule(left, right, target, coeff))
    return Algebra(name, modulus, families, rules, b=b)


def read_json(path: str | Path, error: type[Exception]):
    """Parsed JSON of a file, the one reader of algebra and map files; an
    unreadable file or malformed JSON raises ``error`` naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise error(f"invalid JSON in {path}: {exc}") from None


def load_algebra(path: str | Path) -> Algebra:
    """Load and validate an algebra definition file (JSON)."""
    return algebra_from_dict(read_json(path, AlgebraError))


def algebra_to_dict(algebra: Algebra) -> dict:
    """Inverse of algebra_from_dict, emitting canonical coefficient strings."""
    return {
        "name": algebra.name,
        "modulus": algebra.modulus,
        "families": list(algebra.families),
        "b": "symbolic" if algebra.b_value is None else str(algebra.b_value),
        "rules": [
            {"left": r.left, "right": r.right, "target": r.target, "coeff": str(r.coeff)}
            for r in algebra.rules()
        ],
    }
