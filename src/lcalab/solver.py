"""Brute-force classification of conformal biderivations on a finite
algebra, by exact rational linear algebra.

The ansatz puts one unknown on every (generator pair, target generator,
monomial d^p l^q with p+q <= D) coordinate.  It presupposes only the loop
structure that Algebra enforces: the unknowns split into index classes,
and sigma_s carries class 0 onto class s (see below).  The solver has to
rediscover the index-shift law within class 0 and the low degree of the
solutions on its own, which is what makes it a useful oracle against the
closed-form families.

Identity residuals are linear in the map, so the residual of the ansatz
at one generator tuple expands into one exact linear row per monomial of
the result; the nullspace of the stacked rows is the solution space.
Assembly evaluates that residual once per tuple, on the tagged map in
which unknown k enters as the coefficient b^k: the algebra is b-free and
residuals never substitute b, so the b^k part of the one residual is the
column of unknown k.  The rows stream straight into an incremental
elimination, so a solve holds only the pivot rows of the reduced row
echelon form, never the rows; the rows are rebuilt on demand, with their
provenance, for tests and reports.  Every entry is an exact rational, an
int or a Fraction (never a float), and every division has a Fraction
operand or is an exact floor division; the reduced row echelon form is
unique, so the emitted basis is deterministic bit for bit.

Every algebra is a loop algebra over Z_m, so the index shift
sigma_s: Z_k -> Z_{k+s} commutes with d and with the bracket in either
slot: it lies in the centroid.  An unknown (left, right, target, d^p l^q)
is in index class target.index - left.index - right.index (mod m); every
row involves one class only, and phi -> sigma_s o phi maps the rows and
the solutions of class 0 onto those of class s.  So only class 0 is
assembled and eliminated, and each class-0 basis vector is lifted by
sigma_s for s = 0..m-1; the reported row count is m times the class-0
rows.  The post-solve re-check covers every reported basis map, the
lifted ones included, so it checks that each is a solution; that the
lifted basis is complete for the classes s != 0 follows from the centroid
argument, not from elimination, and the unlifted solve in
tests/test_solver.py checks it.

The work after the solve is done once for the whole basis.  The re-check
is one verify_map sweep of the tagged basis map sum_i b^i phi_i, whose
b^i parts are the residuals of phi_i, by the argument of assembly; and
the template match is one elimination of the template columns with every
basis vector as one more column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import Algebra, GeneratorId
from .bimaps import (
    BilinearMap,
    FamilyError,
    GenPair,
    Residual,
    TAG_ARITY,
    make_family,
    map_to_dict,
    normalize_tags,
    residual,
    verify_map,
)
from .poly import Monomial, Poly, Var


class SolverError(ValueError):
    """Invalid solver request or failed internal consistency check."""


class InternalCheckError(SolverError):
    """A solved basis vector failed the post-solve residual re-check: a
    solver bug, not bad input."""


# Tags usable as linear constraints; lem2 is a consequence of the others
# and is only ever checked, never assembled.
ASSEMBLE_TAGS = ("def1a", "def1b", "lem1")

# Largest ansatz the solver builds, about five times the largest bench
# ladder case (10,368 unknowns).
MAX_UNKNOWNS = 50_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Unknown:
    """One ansatz coefficient: the d^dpow * l^lpow part of the target
    component of phi(left, right)."""

    left: GeneratorId
    right: GeneratorId
    target: GeneratorId
    dpow: int
    lpow: int

    @property
    def monomial(self) -> Monomial:
        return (self.dpow, self.lpow, 0, 0, 0)

    def __str__(self) -> str:
        return f"u[{self.left},{self.right}->{self.target}|d^{self.dpow}*l^{self.lpow}]"


class Ansatz:
    """Degree-bounded unknown-coefficient general form of a bilinear map.

    Unknown count is (#pairs) * (#generators) * (D+1)(D+2)/2, at most
    MAX_UNKNOWNS.  Requires a bracket table free of b (numeric b): the
    constraint rows must be rational numbers, and assembly uses b as the
    tag of the unknowns (see tagged_map).

    ``unknowns`` lists every unknown; ``class0`` holds the indices of the
    index-class-0 ones (target index = left + right mod m), the only ones
    assembled and solved.  ``shift`` and ``lift`` carry class 0 onto
    class s.
    """

    def __init__(self, algebra: Algebra, degree: int):
        if not isinstance(degree, int) or degree < 0:
            raise SolverError(f"degree must be a non-negative integer, got {degree!r}")
        n_gens = len(algebra.generators())
        count = n_gens ** 3 * (degree + 1) * (degree + 2) // 2
        if count > MAX_UNKNOWNS:
            raise SolverError(f"ansatz of {count} unknowns ({n_gens} generators, degree "
                              f"{degree}) exceeds the cap of {MAX_UNKNOWNS}")
        for rule in algebra.rules():
            if Var.B in rule.coeff.variables():
                raise SolverError(
                    "the solver needs a numeric b; instantiate the algebra first")
        gens = algebra.generators()
        monos = sorted(((p, q) for p in range(degree + 1)
                        for q in range(degree + 1 - p)), key=lambda pq: (sum(pq), pq[1]))
        self.algebra = algebra
        self.degree = degree
        self.unknowns = [
            Unknown(gi, gj, gt, p, q)
            for gi in gens for gj in gens for gt in gens for (p, q) in monos
        ]
        self._index = {u: k for k, u in enumerate(self.unknowns)}
        m = algebra.modulus
        self.class0 = [k for k, u in enumerate(self.unknowns)
                       if (u.target.index - u.left.index - u.right.index) % m == 0]
        self._n_monos = len(monos)

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def _map(self, terms: Iterable[tuple[Unknown, Monomial, Fraction]]) -> BilinearMap:
        entries: dict[GenPair, dict[GeneratorId, dict[Monomial, Fraction]]] = {}
        for u, mono, coeff in terms:
            entries.setdefault((u.left, u.right), {}).setdefault(u.target, {})[mono] = coeff
        table = {
            pair: self.algebra.element({gt: Poly(monos) for gt, monos in targets.items()})
            for pair, targets in entries.items()
        }
        return BilinearMap(self.algebra, table)

    def map_from_vector(self, vector: Sequence[Fraction]) -> BilinearMap:
        """Assemble the concrete map with the given unknown values."""
        if len(vector) != self.n_unknowns:
            raise SolverError("vector length does not match unknown count")
        return self._map((u, u.monomial, coeff)
                         for coeff, u in zip(vector, self.unknowns) if coeff)

    def shift(self, k: int, s: int) -> int:
        """The index of sigma_s of unknown k: the same unknown with its
        target index moved by s (mod m).

        Generators run index-innermost within each family, and monomials
        innermost within each target, so the shift moves k by a multiple
        of the monomial count; it keeps the order of the unknowns within
        one class.
        """
        i = self.unknowns[k].target.index
        return k + ((i + s) % self.algebra.modulus - i) * self._n_monos

    def lift(self, entries: dict[int, int], s: int) -> list[int]:
        """The dense vector of sigma_s o phi, for phi given by its nonzero
        entries {unknown index: value}."""
        vector = [0] * self.n_unknowns
        for k, value in entries.items():
            vector[self.shift(k, s)] = value
        return vector

    def tagged_map(self) -> BilinearMap:
        """The class-0 ansatz map with unknown k set to the tag b^k.

        Unknown k = (left, right, target, d^p l^q) of class 0 is the term
        b^k d^p l^q on target at (left, right); the other classes are
        left out (see lift).  Any residual of this map is a polynomial
        whose b^k part is the residual of the map with unknown k set to 1
        and every other unknown 0.
        """
        return self._map((u, (u.dpow, u.lpow, 0, 0, k), 1)
                         for k, u in ((k, self.unknowns[k]) for k in self.class0))

    def vector_of(self, phi: BilinearMap) -> list[Fraction]:
        """Flatten a concrete map onto the unknown coordinates.

        Raises if the map has support outside the ansatz space (degree too
        high, or a b-dependent coefficient).
        """
        vector = [_ZERO] * self.n_unknowns
        for (gi, gj), value in phi.table.items():
            for gt, poly in value.terms.items():
                for mono, coeff in poly.terms.items():
                    if mono[2] or mono[3] or mono[4]:
                        raise SolverError(f"map coefficient {poly} uses a variable "
                                          f"outside d, l")
                    u = Unknown(gi, gj, gt, mono[0], mono[1])
                    k = self._index.get(u)
                    if k is None:
                        raise SolverError(
                            f"map exceeds the degree-{self.degree} ansatz at {u}")
                    vector[k] = coeff
        return vector


@dataclass(frozen=True)
class Provenance:
    """Where one constraint row came from."""

    tag: str
    args: tuple[GeneratorId, ...]
    gen: GeneratorId
    monomial: Monomial

    def __str__(self) -> str:
        args = ", ".join(str(g) for g in self.args)
        mono = str(Poly.monomial(self.monomial))
        return f"{self.tag} ({args}) coefficient of {mono} on {self.gen}"


Row = dict[int, Fraction]


@dataclass
class ConstraintSystem:
    """Sparse exact-rational homogeneous system over the ansatz unknowns.

    It holds the row count and the reduced row echelon form (pivot
    column -> row, see _rref) of the class-0 rows, not the rows.  The
    class-0 solutions, lifted by sigma_s for s = 0..m-1, are the solutions
    of the whole system, and ``n_rows`` counts every class, m times the
    class-0 rows.  ``rows`` and ``provenance`` call ``listing`` on each
    access, which for an assembled system is one more class-0 assembly,
    lifted onto every class.
    """

    ansatz: Ansatz
    tags: tuple[str, ...]
    n_rows: int
    pivots: dict[int, Row]
    listing: Callable[[], list[tuple[Provenance, Row]]] = field(repr=False, compare=False)

    @classmethod
    def from_rows(cls, ansatz: Ansatz, tags: Iterable[str], rows: Sequence[Row],
                  provenance: Sequence[Provenance]) -> ConstraintSystem:
        """A system of explicit rows, eliminated like an assembled one.

        Only m = 1, where class 0 is every unknown and the lift is the
        identity: explicit rows carry no class structure to lift.
        """
        if ansatz.algebra.modulus != 1:
            raise SolverError("explicit rows need an algebra with m = 1")
        listing = list(zip(provenance, rows))
        return cls(ansatz, tuple(tags), len(rows), _rref(rows), lambda: listing)

    @property
    def n_unknowns(self) -> int:
        return self.ansatz.n_unknowns

    @property
    def rows(self) -> list[Row]:
        return [row for _, row in self.listing()]

    @property
    def provenance(self) -> list[Provenance]:
        return [prov for prov, _ in self.listing()]

    def evaluate(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """Row values at a concrete unknown assignment."""
        return [sum((c * vector[k] for k, c in row.items()), _ZERO)
                for row in self.rows]

    def satisfied_by(self, vector: Sequence[Fraction]) -> bool:
        return all(v == 0 for v in self.evaluate(vector))


def _tuple_rows(ansatz: Ansatz, tags: tuple[str, ...]) -> Iterator[
        tuple[str, tuple[GeneratorId, ...], dict[GeneratorId, dict[Monomial, Row]]]]:
    """The class-0 rows of each (tag, tuple), unsorted: (tag, args,
    target -> monomial -> row), from one residual of the tagged map.

    Residuals are linear in the map and never substitute b, and the
    algebra is b-free, so the residual of Ansatz.tagged_map is
    Q[b]-linear: its b^k part is unknown k's column.  Each (target
    generator, monomial in d, l, m, g) of the residual is one row
    {k: coefficient of b^k}; no all-zero row arises.
    """
    tagged = ansatz.tagged_map()
    gens = ansatz.algebra.generators()
    for tag in tags:
        for args in itertools.product(gens, repeat=TAG_ARITY[tag]):
            by_target = {}
            for gt, poly in residual(tagged, tag, args).value.terms.items():
                rows: dict[Monomial, Row] = {}
                for (p, q, r, s, k), coeff in poly.terms.items():
                    rows.setdefault((p, q, r, s, 0), {})[k] = coeff
                by_target[gt] = rows
            yield tag, args, by_target


def _listing(ansatz: Ansatz, tags: tuple[str, ...]) -> list[tuple[Provenance, Row]]:
    """The assembled rows of every class with their provenance, ordered by
    (tag, tuple, target, monomial), with unknowns ascending within a row.

    The class-s rows are the class-0 rows lifted by sigma_s: the residual
    of sigma_s o phi is sigma_s of the residual of phi, so each lifted row
    keeps its tuple and monomial, its target index moves by s and its
    unknowns move by Ansatz.shift.
    """
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    listing = []
    for tag, args, by_target in _tuple_rows(ansatz, tags):
        lifted = {algebra.gen(gt.family, gt.index + s): (s, rows)
                  for gt, rows in by_target.items() for s in range(algebra.modulus)}
        for gt in sorted(lifted, key=sort_key):
            s, rows = lifted[gt]
            for mono in sorted(rows):
                row = {ansatz.shift(k, s): c for k, c in rows[mono].items()}
                listing.append((Provenance(tag, args, gt, mono),
                                {k: row[k] for k in sorted(row)}))
    return listing


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b")) -> ConstraintSystem:
    """Expand the class-0 ansatz residuals into linear rows by coefficient
    matching, and eliminate them as they come.

    For each tag and generator tuple, the residual of the tagged class-0
    map is computed once (see _tuple_rows), and each of its rows goes
    straight into _rref, so only the class-0 pivots are ever held.  The
    other m - 1 classes are not assembled: their rows are the class-0
    rows lifted by sigma_s, so ``n_rows`` is m times the class-0 rows,
    and nullspace lifts the solutions.  The system's ``rows`` and
    ``provenance`` rebuild the rows of every class in the order (tag,
    tuple, target, monomial), which is deterministic.
    """
    tags = normalize_tags(tags)
    bad = [t for t in tags if t not in ASSEMBLE_TAGS]
    if bad:
        raise SolverError(f"tag(s) not assemblable as linear constraints: "
                          f"{', '.join(bad)} (lem2 is checked, not solved)")
    n_rows = 0

    def stream() -> Iterator[Row]:
        nonlocal n_rows
        for _, _, by_target in _tuple_rows(ansatz, tags):
            for rows in by_target.values():
                n_rows += len(rows)
                yield from rows.values()

    pivots = _rref(stream())
    m = ansatz.algebra.modulus
    return ConstraintSystem(ansatz, tags, m * n_rows, pivots, partial(_listing, ansatz, tags))


# ---------------------------------------------------------------------------
# Exact nullspace
# ---------------------------------------------------------------------------

def _normalize_vector(vector: list[Fraction]) -> list[int]:
    """Scale int/Fraction entries to coprime ints with the first nonzero
    entry positive, in integer arithmetic only."""
    denoms = lcm(*(v.denominator for v in vector))
    ints = [v.numerator * (denoms // v.denominator) for v in vector]
    common = gcd(*ints)
    if common > 1:
        ints = [v // common for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


@dataclass
class SolutionSpace:
    """Exact nullspace of a constraint system, as concrete maps."""

    ansatz: Ansatz
    dimension: int
    vectors: list[list[Fraction]]
    basis: list[BilinearMap]
    system: ConstraintSystem | None = None


def _rref(rows: Iterable[Row]) -> dict[int, Row]:
    """Reduced row echelon form of sparse rows, as pivot-column -> row.

    Rows are taken one at a time (a generator is fine) and only the pivot
    rows are kept.  Each stored row has coefficient 1 on its pivot column
    and no support on any other pivot column.  ``holders`` maps each
    non-pivot column to the pivots of the stored rows that have it, so a
    new pivot is cleared from exactly those rows.  The RREF is unique, so
    the result does not depend on the order of the rows, only on their
    span; int rows stay int as long as every pivot is +-1.
    """
    pivots: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        r = dict(row)
        # Pivot rows have no other pivot column, so one pass reduces r.
        for c in [c for c in r if c in pivots]:
            factor = r.pop(c)
            for c2, v2 in pivots[c].items():
                if c2 != c:
                    s = r.get(c2, 0) - factor * v2
                    if s:
                        r[c2] = s
                    else:
                        del r[c2]
        if not r:
            continue
        lead = min(r)
        scale = r[lead]
        if scale == -1:
            r = {c: -v for c, v in r.items()}
        elif scale != 1:
            # Fraction / (int or Fraction) is exact; int / int would be a float.
            inv = _ONE / scale
            r = {c: v * inv for c, v in r.items()}
        tail = [(c, v) for c, v in r.items() if c != lead]
        for p in holders.pop(lead, ()):
            prow = pivots[p]
            factor = prow.pop(lead)
            for c2, v2 in tail:
                s = prow.get(c2, 0) - factor * v2
                if s:
                    if c2 not in prow:
                        holders.setdefault(c2, set()).add(p)
                    prow[c2] = s
                else:
                    del prow[c2]
                    holders[c2].discard(p)
        for c, _ in tail:
            holders.setdefault(c, set()).add(lead)
        pivots[lead] = r
    return pivots


def nullspace(system: ConstraintSystem) -> SolutionSpace:
    """Exact rational nullspace with a canonical, integer-normalized basis.

    One vector per free class-0 column of the RREF, with the free unknown
    set to 1, scaled to coprime integers with positive leading entry; each
    is lifted by sigma_s for s = 0..m-1 (see Ansatz.lift).  The lifted
    vectors are ordered by free column: sigma_s keeps the column order
    within a class, so this is the free-column basis of the whole
    system, and identical inputs give bit-identical bases.
    """
    ansatz = system.ansatz
    pivots = system.pivots
    m = ansatz.algebra.modulus
    lifted = []
    for f in ansatz.class0:
        if f in pivots:
            continue
        entries = {f: _ONE}
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff:
                entries[pc] = -coeff
        cols = sorted(entries)
        entries = dict(zip(cols, _normalize_vector([entries[c] for c in cols])))
        lifted += [(ansatz.shift(f, s), ansatz.lift(entries, s))
                   for s in range(m)]
    lifted.sort(key=lambda free_vector: free_vector[0])
    vectors = [vector for _, vector in lifted]
    basis = [ansatz.map_from_vector(v) for v in vectors]
    return SolutionSpace(ansatz, len(vectors), vectors, basis, system)


def _tagged_sum(maps: Sequence[BilinearMap]) -> BilinearMap:
    """The map sum_i b^i maps[i], for b-free maps over one algebra.

    Like Ansatz.tagged_map: any residual of the sum is a polynomial whose
    b^i part is that residual of maps[i] (see _b_part).
    """
    algebra = maps[0].algebra
    entries: dict[GenPair, dict[GeneratorId, dict[Monomial, Fraction]]] = {}
    for i, phi in enumerate(maps):
        for pair, value in phi.table.items():
            targets = entries.setdefault(pair, {})
            for gt, poly in value.terms.items():
                terms = targets.setdefault(gt, {})
                for mono, coeff in poly.terms.items():
                    terms[mono[:4] + (i,)] = coeff
    return BilinearMap(algebra, {
        pair: algebra.element({gt: Poly(terms) for gt, terms in targets.items()})
        for pair, targets in entries.items()})


def _b_part(r: Residual, i: int) -> Residual:
    """The b^i part of a residual of _tagged_sum, with b set to 1."""
    return Residual(r.tag, r.args, r.value.algebra.element({
        gt: Poly({mono[:4] + (0,): coeff for mono, coeff in poly.terms.items()
                  if mono[4] == i})
        for gt, poly in r.value.terms.items()}))


def solve_bider(algebra: Algebra, degree: int,
                tags: Iterable[str] = ("def1a", "def1b")) -> SolutionSpace:
    """Assemble, solve, and re-verify: the classification oracle.

    Class 0 is solved and lifted onto every class (see nullspace).  Every
    reported basis map, lifted or not, is re-checked against the solved
    identities with the independent residual engine (defense in depth
    against elimination and lift bugs), in one verify_map sweep of the
    tagged basis map sum_i b^i phi_i.  That is exact for the reason
    assembly is: the algebra and the phi_i are b-free, the phi_i have int
    coefficients and no residual substitutes b, so the b^i part of each
    tagged residual is the residual of phi_i, and the sweep memo makes
    each bracket once for all vectors.  A failure raises
    InternalCheckError naming the lowest failing vector, with its first
    three residuals read off the b^i parts of the failures.
    """
    ansatz = Ansatz(algebra, degree)
    system = assemble(ansatz, tags)
    space = nullspace(system)
    if not space.basis:
        return space
    report = verify_map(_tagged_sum(space.basis), system.tags)
    if not report.passed:
        i = min(mono[4] for r in report.failures for poly in r.value.terms.values()
                for mono in poly.terms)
        parts = [part for part in (_b_part(r, i) for r in report.failures)
                 if not part.is_zero]
        raise InternalCheckError(
            f"internal check failed: basis vector {i} has nonzero residuals: "
            + "; ".join(str(part) for part in parts[:3]))
    return space


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def family_templates(algebra: Algebra) -> list[tuple[str, BilinearMap]]:
    """The closed-form family instances available on this algebra: each
    template kind once per shift, named "kind(s=shift)".

    Which kinds an algebra carries is make_family's decision alone: a
    kind it refuses with FamilyError (its conditions do not depend on the
    shift) is left out.
    """
    templates: list[tuple[str, BilinearMap]] = []
    for name, kind, params in (("cw_shift", "cw_shift", {"a": 1}),
                               ("clw_a", "clw_shift", {"a": 1, "g": 0}),
                               ("clw_g", "clw_shift", {"a": 0, "g": 1})):
        try:
            templates += [(f"{name}(s={s})", make_family(algebra, kind, shift=s, **params))
                          for s in range(algebra.modulus)]
        except FamilyError:
            pass
    return templates


def express_all_in_span(columns: Sequence[Sequence[Fraction]],
                        targets: Sequence[Sequence[Fraction]]) -> list[list[Fraction] | None]:
    """Exact coordinates of each target in the span of columns, or None for
    a target outside it, from one elimination of [columns | targets].

    Target t is column n + t, right of the n given columns.  The RREF is
    unique, and no row reduction among the target columns changes a
    target in the span, so each result is the same as an elimination of
    [columns | target] alone: target t is in the span iff no pivot row
    whose pivot is a target column has a nonzero entry in column n + t,
    and its coordinates are then column n + t of the pivot rows of the
    given columns.  If the columns are linearly dependent, free
    coordinates are set to 0.
    """
    if not targets:
        return []
    n_cols = len(columns)
    vectors = [*columns, *targets]
    rows = ({j: v[i] for j, v in enumerate(vectors) if v[i]} for i in range(len(targets[0])))
    pivots = _rref(row for row in rows if row)
    outside = [prow for pc, prow in pivots.items() if pc >= n_cols]
    results: list[list[Fraction] | None] = []
    for c in range(n_cols, n_cols + len(targets)):
        if any(c in prow for prow in outside):
            results.append(None)
            continue
        coords = [_ZERO] * n_cols
        for pc, prow in pivots.items():
            if pc < n_cols:
                coords[pc] = prow.get(c, _ZERO)
        results.append(coords)
    return results


def express_in_span(columns: Sequence[Sequence[Fraction]],
                    target: Sequence[Fraction]) -> list[Fraction] | None:
    """Exact coordinates of target in the span of columns, or None: the
    one-target case of express_all_in_span."""
    return express_all_in_span(columns, [target])[0]


@dataclass
class MatchEntry:
    index: int
    combination: dict[str, Fraction] | None
    map: BilinearMap

    @property
    def matched(self) -> bool:
        return self.combination is not None


@dataclass
class MatchReport:
    """Expression of each solution basis vector in the family templates."""

    template_names: list[str]
    entries: list[MatchEntry]

    @property
    def fully_matched(self) -> bool:
        return all(e.matched for e in self.entries)

    def matched(self) -> list[MatchEntry]:
        return [e for e in self.entries if e.matched]

    def unmatched(self) -> list[MatchEntry]:
        return [e for e in self.entries if not e.matched]

    def to_json(self) -> dict:
        return {
            "templates": self.template_names,
            "matched": [
                {"basis": e.index,
                 "combination": {name: str(c) for name, c in e.combination.items() if c}}
                for e in self.matched()
            ],
            "unmatched": [
                {"basis": e.index, "map": map_to_dict(e.map)}
                for e in self.unmatched()
            ],
        }


def match_templates(space: SolutionSpace) -> MatchReport:
    """Try to express every basis vector as a rational combination of the
    family templates; anything that fails is reported verbatim.

    A template that does not fit the ansatz (its degree is above the
    ansatz degree) is left out: no solution can use it.  The template
    columns are eliminated once, with every basis vector as one more
    column (see express_all_in_span).
    """
    ansatz = space.ansatz
    names, columns = [], []
    for name, phi in family_templates(ansatz.algebra):
        try:
            columns.append(ansatz.vector_of(phi))
        except SolverError:
            continue
        names.append(name)
    entries = []
    for i, coords in enumerate(express_all_in_span(columns, space.vectors)):
        combination = None
        if coords is not None:
            combination = {name: coords[j] for j, name in enumerate(names)}
        entries.append(MatchEntry(i, combination, space.basis[i]))
    return MatchReport(names, entries)


def solver_report(space: SolutionSpace, match: MatchReport | None = None) -> dict:
    """The full JSON report of a classification run."""
    if match is None:
        match = match_templates(space)
    system = space.system
    match_json = match.to_json()
    return {
        "algebra": space.ansatz.algebra.name,
        "degree": space.ansatz.degree,
        "tags": list(system.tags) if system else [],
        "unknowns": space.ansatz.n_unknowns,
        "rows": system.n_rows if system else 0,
        "dimension": space.dimension,
        "basis": [map_to_dict(phi) for phi in space.basis],
        "matched": match_json["matched"],
        "unmatched": match_json["unmatched"],
    }
