"""Conformal bilinear maps on a bracket-table algebra, and the residuals
of the four biderivation identities.

A bilinear map phi is a table of Element values on generator pairs
(absent pair = zero), with coefficients in d, l, b only.  It is evaluated
on general elements by the bracket's own kernel, ``algebra.slot_eval``:
coefficient p(d) on the left enters as p(-s), q(d) on the right as
q(d+s), and the table value's l is renamed to the requested spectral
parameter (once per map and parameter; the table is read-only).  The
closed-form families are one map on every algebra, the bracket table
scaled and index-shifted, sigma_s o (a [. l .]), plus the g-component,
which only the CLW table at b = -1 carries.

Each identity is checked as a left-minus-right residual that must vanish
identically:

  def1a   phi_l(x,y) + phi_{-d-l}(y,x)                          (skew)
  def1b   phi_l(x,[y_m z]) - [(phi_l(x,y))_{l+m} z] - [y_m phi_l(x,z)]
  lem1    phi_{l+m}([x_m y],z) - [x_m phi_l(y,z)] + [y_l phi_m(x,z)]
  lem2    [(phi_m(x,y))_{m+g} [u_l v]] - [[x_m y]_{m+g} phi_l(u,v)]

def1b and lem1 are equivalent forms of the Leibniz rule for maps that
satisfy def1a; lem2 is a consequence of def1a + def1b.  Both facts are
exercised by the test suite rather than assumed.  For the bracket itself
(inner, t = 1) def1a is skew-symmetry and def1b the Jacobi identity:
algebra.check_axioms is verify_map of that map on those two tags.

Residuals are linear in the map, which is what the classification solver
builds on.

A sweep (verify_map) evaluates the same slot products again and again:
the inner brackets and map values of a tuple depend on two generators
only, n^2 of them against n^3 or n^4 tuples, and for a concrete map the
outer brackets repeat too, because its values repeat along the index
sum, and so does the last step of each identity, the sum or difference
of its two or three outer values.  So each verify_map call keeps one
memo for all its residuals, which makes each distinct product once and
dies when the sweep returns (_sweep_memo).  The sweep runs the four
formulas through the kernel residual uses, on interned generator
elements, and builds a Residual only where the value is not zero.

Most swept maps also repeat along whole sigma-orbits: the index shift
sigma_s commutes with every bracket here, so for an index-equivariant
map, phi(x_i, y_j) = sigma_{i+j} phi(x_0, y_0), each residual is the
shift of the residual at the index-0 generators of its families.
verify_map tests the table for that in O(n^2) and then evaluates one
tuple per family tuple, m^arity times fewer, and shifts each failure
into place (verify_map gives the counts on the benchmark's sweeps).  A
map that fails the test is swept over every tuple, through the same
memo.  The solver's post-solve re-check is one such sweep, of the tagged
map sum_j b^j phi_j of the class-0 basis maps (the lifted ones are
checked without residuals), so each of its brackets is made once for all
of them.  Assembly (solver) keeps no memo: it calls residual once per
(tag, family tuple), at the index-0 generators of an m = 1 copy of the
algebra, with one map per phi slot (PHI_SLOTS, the call order of
_identity), each tagging the unknowns of its slot with its own powers of
b; no product repeats, so a memo would only hold memory (a sweep-wide
memo on the tagged ansatz map that assembly once swept raised the
classify benchmark's peak RSS from 24.2 to 30.4 MB, with no gain in
time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import lcm
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .algebra import (
    MAX_SWEEP_RESIDUALS,
    TABLE_VARS,
    Algebra,
    AlgebraError,
    BracketRule,
    Element,
    GeneratorId,
    bracket,
    make_catalog,
    parse_generator,
    read_json,
    second_slot_subst,
    slot_eval,
)
from .poly import ParseError, Poly, Scalar, Var, exact_scalar, parse_poly

TAGS = ("def1a", "def1b", "lem1", "lem2")

TAG_ARITY = {"def1a": 2, "def1b": 3, "lem1": 3, "lem2": 4}

# The spectral sums of the nested identities, built once: each table
# owner's cache finds them by identity.
_L_PLUS_M = Poly.variable(Var.L) + Poly.variable(Var.M)
_M_PLUS_G = Poly.variable(Var.M) + Poly.variable(Var.G)


class MapError(ValueError):
    """Invalid bilinear map table or map file."""


class FamilyError(ValueError):
    """Invalid closed-form family request."""


def normalize_tags(tags: Iterable[str]) -> tuple[str, ...]:
    """Validate identity tags and return them in canonical order."""
    if isinstance(tags, str):
        raise MapError(f"identity tags must be a collection of tags such as "
                       f"({tags!r},), not the bare string {tags!r}")
    tags = set(tags)
    bad = tags - set(TAGS)
    if bad:
        raise MapError(f"unknown identity tag(s): {', '.join(sorted(bad))}")
    if not tags:
        raise MapError("at least one identity tag is required")
    return tuple(t for t in TAGS if t in tags)


GenPair = tuple[GeneratorId, GeneratorId]


class BilinearMap:
    """Table of Element values phi(e_i, e_j) on generator pairs.

    Coefficients are restricted to d, l, b; spectral variables other than
    l never appear in a table (they only arise inside residuals).  The
    table is read-only after construction.
    """

    __slots__ = ("algebra", "_table", "_terms", "_renamed")

    def __init__(self, algebra: Algebra, table: Mapping[GenPair, Element]):
        named: dict[GenPair, Element] = {}
        for pair, value in table.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise MapError(f"bad table key {pair!r}, expected a generator pair")
            gi, gj = algebra.gen_of(pair[0]), algebra.gen_of(pair[1])
            # two keys may name one pair, ("L", 0) and ("L", 2) at m = 2
            if (gi, gj) in named:
                raise MapError(f"duplicate entry for pair ({gi},{gj})")
            if value.algebra is not algebra and value.algebra != algebra:
                raise MapError("table value over a different algebra")
            for coeff in value.terms.values():
                if any(v not in TABLE_VARS for v in coeff.variables()):
                    raise MapError(f"entry ({gi},{gj}): coefficients may use only d, l, b")
            named[(gi, gj)] = value
        self.algebra = algebra
        self._table = {pair: value for pair, value in named.items() if not value.is_zero}
        # The table as slot_eval reads it: the terms of each value.
        self._terms = {pair: value.terms for pair, value in self._table.items()}
        self._renamed: dict = {}

    @property
    def table(self) -> Mapping[GenPair, Element]:
        """Read-only view of the nonzero values on generator pairs."""
        return MappingProxyType(self._table)

    @classmethod
    def zero(cls, algebra: Algebra) -> "BilinearMap":
        return cls(algebra, {})

    def entry(self, gi: GeneratorId, gj: GeneratorId) -> Element:
        return self.table.get((gi, gj), self.algebra.zero_element())

    @property
    def is_zero(self) -> bool:
        return not self.table

    def pairs(self) -> list[GenPair]:
        key = self.algebra.gen_sort_key
        return sorted(self.table, key=lambda p: (key(p[0]), key(p[1])))

    def __add__(self, other: "BilinearMap") -> "BilinearMap":
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise MapError("mismatched algebras")
        out = dict(self.table)
        for pair, value in other.table.items():
            prev = out.get(pair)
            total = value if prev is None else prev + value
            if total.is_zero:
                out.pop(pair, None)
            else:
                out[pair] = total
        return BilinearMap(self.algebra, out)

    def __mul__(self, factor: Scalar) -> "BilinearMap":
        c = exact_scalar(factor, MapError, "factor")
        if not c:
            return BilinearMap(self.algebra, {})
        return BilinearMap(self.algebra,
                           {pair: value * c for pair, value in self.table.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "BilinearMap":
        return self * -1

    def __sub__(self, other: "BilinearMap") -> "BilinearMap":
        return self + (-1 * other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BilinearMap):
            return NotImplemented
        return (self.algebra is other.algebra or self.algebra == other.algebra) \
            and self.table == other.table

    def __repr__(self) -> str:
        entries = "; ".join(f"({gi},{gj}) -> {self.table[(gi, gj)]}"
                            for gi, gj in self.pairs())
        return f"BilinearMap({entries or '0'})"


def map_eval(phi: BilinearMap, x: Element, y: Element,
             spectral: Union[Var, Poly] = Var.L) -> Element:
    """Evaluate phi_s(x, y): phi's table under the bracket's slot rule."""
    alg = phi.algebra
    if (x.algebra is not alg and x.algebra != alg) or \
       (y.algebra is not alg and y.algebra != alg):
        raise MapError("mismatched algebras")
    return slot_eval(phi._terms, phi._renamed, x, y, spectral)


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------

@dataclass
class Residual:
    """Left minus right of one identity at one generator tuple."""

    tag: str
    args: tuple[GeneratorId, ...]
    value: Element

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def __str__(self) -> str:
        args = ", ".join(str(g) for g in self.args)
        return f"{self.tag} ({args}): {self.value}"


def _combine(tag: str, a: Element, b: Element, c: Element | None = None) -> Element:
    """The last step of identity tag on the values _identity computes."""
    if tag == "def1a":
        return a + second_slot_subst(b, Var.L)
    if tag == "lem2":
        return a - b
    return a - b - c if tag == "def1b" else a - b + c


# The phi slots of each identity: the generator pairs on which _identity
# evaluates phi, in call order, one (left, right) per slot, where an operand
# is an argument position or, for an inner bracket, a pair of them: def1a
# phi(x,y), phi(y,x); def1b phi(x,[yz]), phi(x,y), phi(x,z); lem1
# phi([xy],z), phi(y,z), phi(x,z); lem2 phi(x,y), phi(u,v).
PHI_SLOTS = {
    "def1a": ((0, 1), (1, 0)),
    "def1b": ((0, (1, 2)), (0, 1), (0, 2)),
    "lem1": (((0, 1), 2), (1, 2), (0, 2)),
    "lem2": ((0, 1), (2, 3)),
}


def _identity(tag: str, e: Sequence[Element], br, ph, co) -> Element:
    """The residual value of one identity (module docstring) at the
    generator elements e, for residual and verify_map alike; br and ph
    evaluate brackets and map values, and co the last step of tag
    (_combine with tag bound, c None for def1a and lem2), through a memo
    or not.  ph is called once per phi slot, in the order of PHI_SLOTS."""
    lam, mu = Var.L, Var.M
    if tag == "def1a":
        x, y = e
        return co(ph(x, y, lam), ph(y, x, lam), None)
    if tag == "def1b":
        x, y, z = e
        return co(ph(x, br(y, z, mu), lam), br(ph(x, y, lam), z, _L_PLUS_M),
                  br(y, ph(x, z, lam), mu))
    if tag == "lem1":
        x, y, z = e
        return co(ph(br(x, y, mu), z, _L_PLUS_M), br(x, ph(y, z, lam), mu),
                  br(y, ph(x, z, mu), lam))
    x, y, u, v = e  # lem2
    return co(br(ph(x, y, mu), br(u, v, lam), _M_PLUS_G),
              br(br(x, y, mu), ph(u, v, lam), _M_PLUS_G), None)


def residual(phi: BilinearMap | Sequence[BilinearMap], tag: str,
             args: Sequence[GeneratorId]) -> Residual:
    """Compute the residual of one identity at one generator tuple, each
    bracket and map evaluation afresh (verify_map sweeps through a memo).

    phi is one map, or one map per phi slot of the identity, over one
    algebra, in the order of PHI_SLOTS: slot i is then evaluated on the
    i-th map.  Residuals are linear in each slot, so the residual is the
    sum of the slots' contributions; the solver tells them apart that way.
    """
    if tag not in TAGS:
        raise MapError(f"unknown identity tag {tag!r}")
    if len(args) != TAG_ARITY[tag]:
        raise MapError(f"{tag} takes {TAG_ARITY[tag]} generators, got {len(args)}")
    if isinstance(phi, BilinearMap):
        alg, ph = phi.algebra, partial(map_eval, phi)
    else:
        maps = list(phi)
        if len(maps) != len(PHI_SLOTS[tag]):
            raise MapError(f"{tag} evaluates phi at {len(PHI_SLOTS[tag])} slots, "
                           f"got {len(maps)} maps")
        alg, slots = maps[0].algebra, iter(maps)

        def ph(x, y, spectral):
            return map_eval(next(slots), x, y, spectral)
    args = tuple(alg.gen(*g) for g in args)
    return Residual(tag, args, _identity(tag, [alg.gen_element(g) for g in args], bracket,
                                         ph, partial(_combine, tag)))


@dataclass
class VerifyReport:
    """Residual sweep of a map over all generator tuples of the given tags."""

    algebra: str
    tags: tuple[str, ...]
    checked: int
    failures: list[Residual]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "tags": list(self.tags),
            "checked": self.checked,
            "passed": self.passed,
            "failures": [
                {"tag": r.tag, "args": [str(g) for g in r.args], "residual": str(r.value)}
                for r in self.failures
            ],
        }

    def to_text(self) -> str:
        lines = [f"algebra {self.algebra}",
                 f"identities {','.join(self.tags)}: {self.checked} residuals checked"]
        for r in self.failures:
            lines.append(f"FAIL {r}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _integral_multiple(phi: BilinearMap) -> tuple[BilinearMap, int]:
    """(den * phi, den), den the least common multiple of the denominators
    of phi's coefficients; den * phi has int coefficients only.

    A map with no Fraction coefficient is returned as it is, with den 1.
    """
    denominators = [c.denominator for value in phi.table.values()
                    for coeff in value.terms.values()
                    for c in coeff.terms.values() if type(c) is Fraction]
    if not denominators:
        return phi, 1
    den = lcm(*denominators)
    # Poly() stores each integral product, a Fraction with denominator 1,
    # as an int.
    table = {pair: phi.algebra.element(
                 {gt: Poly({mono: c * den for mono, c in coeff.terms.items()})
                  for gt, coeff in value.terms.items()})
             for pair, value in phi.table.items()}
    return BilinearMap(phi.algebra, table), den


def shift_targets(value: Element, s: int) -> Element:
    """sigma_s of an element: every target index moved by s (mod m).  The
    targets of one element stay distinct, so its terms are kept as they
    are."""
    algebra = value.algebra
    return Element._raw(algebra, {algebra.gen(gt.family, gt.index + s): c
                                  for gt, c in value.terms.items()})


def _is_equivariant(phi: BilinearMap) -> bool:
    """Whether phi(x_i, y_j) = sigma_{i+j} phi(x_0, y_0) on every generator
    pair, an absent pair counting as zero: each pair's value is its
    families' index-0 value with every target index moved by i + j, so a
    family pair is wholly present or wholly absent."""
    alg = phi.algebra
    table = phi.table
    zero = alg.zero_element()
    for gi, gj in itertools.product(alg.generators(), repeat=2):
        base = table.get((alg.gen(gi.family, 0), alg.gen(gj.family, 0)), zero)
        if table.get((gi, gj), zero).terms != shift_targets(base, gi.index + gj.index).terms:
            return False
    return True


def _sweep_memo():
    """The memo of one verify_map sweep: (intern, cached).

    intern keeps one object per distinct value, keyed by
    tuple(value.terms.items()).  cached(kernel) is kernel, a function of
    three arguments, cached under their ids, with each value it returns
    interned.  verify_map caches bracket, map_eval of den * phi and, for
    each tag, its last step (_combine with the tag bound), each looked up
    within the sweep (so a kernel patched in before it sees every miss),
    and interns its generator elements.  So every argument a cached
    kernel receives is a value intern holds until the sweep returns, or a
    module constant (Var.L, Var.M, _L_PLUS_M, _M_PLUS_G, None): no id is
    reused while the memo lives, an id hit is exactly a content hit, and
    an entry keeps only its value.  Elements are never written after
    construction, so one value may be shared by many residuals; no cache
    order reaches the output.
    """
    values: dict[tuple, Element] = {}

    def intern(value: Element) -> Element:
        return values.setdefault(tuple(value.terms.items()), value)

    def cached(kernel):
        entries: dict[tuple, Element] = {}

        def call(x, y, z):
            key = (id(x), id(y), id(z))
            value = entries.get(key)
            if value is None:
                value = entries[key] = intern(kernel(x, y, z))
            return value
        return call

    return intern, cached


def verify_map(phi: BilinearMap, tags: Iterable[str] = TAGS) -> VerifyReport:
    """Evaluate every residual of the given tags over all generator tuples.

    The report lists every nonzero residual with its canonical polynomial
    string, ordered by (tag, tuple).

    Residuals are linear in the map, so the sweep runs on den * phi, whose
    coefficients are ints (see _integral_multiple), and divides only the
    nonzero residuals by den.  The work per tuple then does not depend on
    whether phi's coefficients are integral.  The residual count, n^arity
    per tag for n generators, is checked against MAX_SWEEP_RESIDUALS
    before any is evaluated.

    One residual per sigma-orbit.  The bracket of every algebra here
    commutes with the index shift sigma_s in either slot (it lies in the
    centroid), so if den * phi is index-equivariant, phi(x_i, y_j) =
    sigma_{i+j} phi(x_0, y_0) on every pair (_is_equivariant, an O(n^2)
    test of its table), then the residual at (x_i, y_j, z_k, ...) is
    sigma_{i+j+k+...} of the residual at the index-0 generators of the
    same families.  Such a map is swept over the family tuples of the
    index-0 generators only, and each failure is the shift of its
    representative's residual by the tuple's index sum, emitted in the
    usual (tag, tuple) order.  Every other map is swept over all tuples.
    The check is exact either way: no tuple is skipped, only computed by
    the shift.

    The residuals share one memo of den * phi (_sweep_memo), so each
    distinct bracket, map evaluation and last step of the sweep is made
    once; the memo is dropped on return.  On the verify benchmark, whose
    three sweeps are equivariant, the orbit sweep cuts the brackets, map
    evaluations and last steps of a pass from 1,521, 876 and 117 (the
    full sweep through the memo; 26,176 brackets and 18,400 map
    evaluations without it) to 95, 48 and 31: 63, 24 and 20 for the 36
    tuples that stand for 5,184 on the CLW(4) clw_shift sweep of all
    tags, 20, 12 and 9 for 12 of 1,872 on check_axioms of CLW(6), and
    12, 12 and 2 for 8 of 512 on the def1b control.  The CLW(4) map with
    one target index moved is not equivariant: its full sweep makes 777,
    336 and 96.  Assembly keeps no memo (see the module docstring).
    """
    tags = normalize_tags(tags)
    alg = phi.algebra
    gens = alg.generators()
    count = sum(len(gens) ** TAG_ARITY[tag] for tag in tags)
    if count > MAX_SWEEP_RESIDUALS:
        raise MapError(f"check of {count} residuals ({len(gens)} generators, "
                       f"{','.join(tags)}) exceeds the cap of {MAX_SWEEP_RESIDUALS}")
    scaled, den = _integral_multiple(phi)
    intern, cached = _sweep_memo()
    br, ph = cached(bracket), cached(partial(map_eval, scaled))
    orbits = _is_equivariant(scaled)
    swept = [alg.gen(f, 0) for f in alg.families] if orbits else gens
    elements = [intern(alg.gen_element(g)) for g in swept]
    failures: list[Residual] = []
    for tag in tags:
        co = cached(partial(_combine, tag))
        nonzero: dict[tuple[GeneratorId, ...], Element] = {}
        for e in itertools.product(elements, repeat=TAG_ARITY[tag]):
            value = _identity(tag, e, br, ph, co)
            if value.terms:
                # the one term of a generator element is its generator
                nonzero[tuple(g for x in e for g in x.terms)] = \
                    value if den == 1 else value * Fraction(1, den)
        if not (orbits and nonzero):
            failures += [Residual(tag, args, value) for args, value in nonzero.items()]
            continue
        for args in itertools.product(gens, repeat=TAG_ARITY[tag]):
            value = nonzero.get(tuple((g.family, 0) for g in args))
            if value is not None:
                failures.append(Residual(tag, args,
                                         shift_targets(value, sum(g.index for g in args))))
    return VerifyReport(alg.name, tags, count, failures)


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------

# The g-component's coefficient: g (d+2l) on G_{i+j+shift} at each (L_i, L_j).
_D_PLUS_2L = Poly.variable(Var.D) + 2 * Poly.variable(Var.L)


@cache
def _g_component_rules() -> list[BracketRule]:
    """The rules of make_catalog("clw", m, -1), the same for every m: the one
    table that carries the g-component, built once."""
    return make_catalog("clw", 1, -1).rules()


def make_family(algebra: Algebra, kind: str, *, t: Scalar = 1, shift: int = 0,
                a: Scalar = 1, g: Scalar = 0) -> BilinearMap:
    """Build one of the closed-form map families.

    All three are the one shifted bracket, the bracket table scaled by
    t * a with every target index moved by shift, sigma_s o (t a [x_l y]),
    on any algebra: sigma_s lies in the centroid of every loop algebra, so
    the map is a biderivation wherever the bracket is a Lie conformal
    bracket.

    inner      phi(x, y) = t [x_l y]: shift 0.
    cw_shift   phi(x_i, y_j) = a [x_l y] with its target index moved by
               shift; the shift=0 slice is the inner map with t = a.
    clw_shift  the same shifted bracket, plus the g-component, which
               routes g (d+2l) G_{i+j+shift} into the (L, L) entries.

    A nonzero g is the one precondition on the algebra: its rules must be
    those of make_catalog("clw", m, -1) (_g_component_rules), else
    FamilyError.  t, a and g must be ints or Fractions, shift an int, and
    a parameter the kind does not take (shift, a, g for inner; t, g for
    cw_shift; t for clw_shift) must keep its default, so t * a is the
    kind's own factor.
    """
    t, a, g = (exact_scalar(value, FamilyError, name)
               for value, name in ((t, "t"), (a, "a"), (g, "g")))
    if isinstance(shift, bool) or not isinstance(shift, int):
        raise FamilyError(f"shift must be an int, got {type(shift).__name__}")
    unused = {"inner": (("shift", shift, 0), ("a", a, 1), ("g", g, 0)),
              "cw_shift": (("t", t, 1), ("g", g, 0)),
              "clw_shift": (("t", t, 1),)}.get(kind)
    if unused is None:
        raise FamilyError(f"unknown family kind {kind!r}; expected inner, cw_shift or clw_shift")
    for name, value, default in unused:
        if value != default:
            raise FamilyError(f"{kind} takes no {name} (got {value})")
    if g and algebra.rules() != _g_component_rules():
        raise FamilyError("the g-component exists only on the CLW table at b = -1")
    table = {pair: shift_targets(value, shift) * (t * a)
             for pair, value in algebra.table.items()}
    if g:
        coeff = _D_PLUS_2L * g
        for gi, gj in table:
            if gi.family == gj.family == "L":
                tgt = algebra.gen("G", gi.index + gj.index + shift)
                table[(gi, gj)] = table[(gi, gj)] + algebra.element({tgt: coeff})
    return BilinearMap(algebra, table)


# ---------------------------------------------------------------------------
# Map files
# ---------------------------------------------------------------------------

def map_to_dict(phi: BilinearMap) -> dict:
    """Serialize a map to the JSON table format, canonically ordered."""
    alg = phi.algebra
    entries = []
    for gi, gj in phi.pairs():
        value = phi.table[(gi, gj)]
        gens = sorted(value.terms, key=alg.gen_sort_key)
        entries.append({
            "left": str(gi),
            "right": str(gj),
            "value": [{"gen": str(g), "coeff": str(value.terms[g])} for g in gens],
        })
    return {"algebra": alg.name, "entries": entries}


def map_from_dict(data: dict, algebra: Algebra) -> BilinearMap:
    """Build a map from the JSON table format against a known algebra.

    {"algebra": str, "entries": [{"left": "L:0", "right": "L:1",
      "value": [{"gen": "L:1", "coeff": expr-string}]}]}

    At a numeric b, the algebra's b is substituted into every
    coefficient, as Algebra does for its rules; at symbolic b it stays.
    """
    if not isinstance(data, dict):
        raise MapError("map definition must be a JSON object")
    name = data.get("algebra")
    if name != algebra.name:
        raise MapError(f"map is for algebra {name!r}, not {algebra.name!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise MapError("entries must be a list")
    table: dict[GenPair, Element] = {}
    for entry in entries:
        try:
            left, right, value = entry["left"], entry["right"], entry["value"]
        except (KeyError, TypeError):
            raise MapError("each entry needs left, right and value") from None
        try:
            gi = algebra.gen(*parse_generator(left))
            gj = algebra.gen(*parse_generator(right))
        except AlgebraError as exc:
            raise MapError(str(exc)) from None
        if (gi, gj) in table:
            raise MapError(f"duplicate entry for pair ({gi},{gj})")
        if not isinstance(value, list):
            raise MapError(f"entry ({left},{right}): value must be a list")
        terms: dict[GeneratorId, Poly] = {}
        for item in value:
            try:
                gen_text, coeff_text = item["gen"], item["coeff"]
            except (KeyError, TypeError):
                raise MapError("each value item needs gen and coeff") from None
            if not isinstance(coeff_text, str):
                raise MapError(f"entry ({left},{right}): coeff must be a string")
            try:
                gt = algebra.gen(*parse_generator(gen_text))
                coeff = parse_poly(coeff_text)
            except (AlgebraError, ParseError) as exc:
                raise MapError(f"entry ({left},{right}): {exc}") from None
            if algebra.b_value is not None:
                coeff = coeff.subst({Var.B: algebra.b_value})
            terms[gt] = terms.get(gt, Poly.zero()) + coeff
        table[(gi, gj)] = algebra.element(terms)
    return BilinearMap(algebra, table)


def load_map(path: str | Path, algebra: Algebra) -> BilinearMap:
    """Load a bilinear map file (JSON) against a known algebra."""
    return map_from_dict(read_json(path, MapError), algebra)
