"""Brute-force classification of conformal biderivations on a finite
algebra, by exact rational linear algebra.

The ansatz puts one unknown on every (generator pair, target generator,
monomial d^p l^q with p+q <= D) coordinate, with no grading or degree
structure presupposed: the solver has to rediscover the index-shift law
and the low degree of the solutions on its own, which is what makes it a
useful oracle against the closed-form families.

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
    GenPair,
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

    def tagged_map(self) -> BilinearMap:
        """The ansatz map with unknown k set to the tag b^k.

        Unknown k = (left, right, target, d^p l^q) is the term
        b^k d^p l^q on target at (left, right).  Any residual of this map
        is a polynomial whose b^k part is the residual of the map with
        unknown k set to 1 and every other unknown 0.
        """
        return self._map((u, (u.dpow, u.lpow, 0, 0, k), 1)
                         for k, u in enumerate(self.unknowns))

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

    It holds the row count and the reduced row echelon form of the rows
    (pivot column -> row, see _rref), not the rows: ``rows`` and
    ``provenance`` call ``listing`` on each access, which for an
    assembled system is one more assembly.
    """

    ansatz: Ansatz
    tags: tuple[str, ...]
    n_rows: int
    pivots: dict[int, Row]
    listing: Callable[[], list[tuple[Provenance, Row]]] = field(repr=False, compare=False)

    @classmethod
    def from_rows(cls, ansatz: Ansatz, tags: Iterable[str], rows: Sequence[Row],
                  provenance: Sequence[Provenance]) -> ConstraintSystem:
        """A system of explicit rows, eliminated like an assembled one."""
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
    """The rows of each (tag, tuple), unsorted: (tag, args, target ->
    monomial -> row), from one residual of the tagged map.

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
    """The assembled rows with their provenance, ordered by (tag, tuple,
    target, monomial), with unknowns ascending within a row."""
    sort_key = ansatz.algebra.gen_sort_key
    listing = []
    for tag, args, by_target in _tuple_rows(ansatz, tags):
        for gt in sorted(by_target, key=sort_key):
            rows = by_target[gt]
            for mono in sorted(rows):
                row = rows[mono]
                listing.append((Provenance(tag, args, gt, mono),
                                {k: row[k] for k in sorted(row)}))
    return listing


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b")) -> ConstraintSystem:
    """Expand the ansatz residuals into linear rows by coefficient matching,
    and eliminate them as they come.

    For each tag and generator tuple, the residual of the tagged map is
    computed once (see _tuple_rows), and each of its rows goes straight
    into _rref, so only the pivots are ever held.  The system's ``rows``
    and ``provenance`` rebuild the rows in the order (tag, tuple, target,
    monomial), which is deterministic.
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
    return ConstraintSystem(ansatz, tags, n_rows, pivots, partial(_listing, ansatz, tags))


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

    One basis vector per free column of the RREF, with the free unknown
    set to 1; vectors are scaled to coprime integers with positive leading
    entry, so identical inputs give bit-identical bases.
    """
    n = system.n_unknowns
    pivots = system.pivots
    free = [c for c in range(n) if c not in pivots]
    vectors = []
    for f in free:
        vec = [_ZERO] * n
        vec[f] = _ONE
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff:
                vec[pc] = -coeff
        vectors.append(_normalize_vector(vec))
    basis = [system.ansatz.map_from_vector(v) for v in vectors]
    return SolutionSpace(system.ansatz, len(free), vectors, basis, system)


def solve_bider(algebra: Algebra, degree: int,
                tags: Iterable[str] = ("def1a", "def1b")) -> SolutionSpace:
    """Assemble, solve, and re-verify: the classification oracle.

    Every basis vector is re-checked against the solved identities with
    the independent residual engine (defense in depth against elimination
    bugs); a failure raises InternalCheckError.
    """
    ansatz = Ansatz(algebra, degree)
    system = assemble(ansatz, tags)
    space = nullspace(system)
    for i, phi in enumerate(space.basis):
        report = verify_map(phi, system.tags)
        if not report.passed:
            raise InternalCheckError(
                f"internal check failed: basis vector {i} has nonzero residuals: "
                + "; ".join(str(r) for r in report.failures[:3]))
    return space


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def family_templates(algebra: Algebra) -> list[tuple[str, BilinearMap]]:
    """The closed-form family instances available on this algebra.

    Single-family algebras get one shift family per residue class;
    two-family (L, G) algebras get the a-family per shift plus, at
    b = -1 only, the g-family per shift.
    """
    m = algebra.modulus
    templates: list[tuple[str, BilinearMap]] = []
    if len(algebra.families) == 1:
        fam = algebra.families[0]
        if algebra.rule(fam, fam).target == fam:
            for s in range(m):
                templates.append((f"cw_shift(s={s})",
                                  make_family(algebra, "cw_shift", shift=s, a=1)))
    elif algebra.families == ("L", "G"):
        for s in range(m):
            templates.append((f"clw_a(s={s})",
                              make_family(algebra, "clw_shift", shift=s, a=1, g=0)))
        if algebra.b_value == Fraction(-1):
            for s in range(m):
                templates.append((f"clw_g(s={s})",
                                  make_family(algebra, "clw_shift", shift=s, a=0, g=1)))
    return templates


def express_in_span(columns: list[list[Fraction]],
                    target: list[Fraction]) -> list[Fraction] | None:
    """Exact coordinates of target in the span of columns, or None.

    If the columns are linearly dependent, free coordinates are set to 0.
    """
    n_cols = len(columns)
    rows = []
    for i in range(len(target)):
        row = {j: columns[j][i] for j in range(n_cols) if columns[j][i]}
        if target[i]:
            row[n_cols] = target[i]
        if row:
            rows.append(row)
    pivots = _rref(rows)
    if n_cols in pivots:
        return None
    coords = [_ZERO] * n_cols
    for pc, prow in pivots.items():
        coords[pc] = prow.get(n_cols, _ZERO)
    return coords


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
    ansatz degree) is left out: no solution can use it.
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
    for i, vec in enumerate(space.vectors):
        coords = express_in_span(columns, vec) if columns else None
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
