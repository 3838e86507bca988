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
column of unknown k.  Every entry is an exact rational, an int or a
Fraction (never a float), and every division has a Fraction operand or
is an exact floor division; the reduced row echelon form is unique, so
the emitted basis is deterministic bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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

    Unknown count is (#pairs) * (#generators) * (D+1)(D+2)/2.  Requires a
    bracket table free of b (numeric b): the constraint rows must be
    rational numbers, and assembly uses b as the tag of the unknowns (see
    tagged_map).
    """

    def __init__(self, algebra: Algebra, degree: int):
        if not isinstance(degree, int) or degree < 0:
            raise SolverError(f"degree must be a non-negative integer, got {degree!r}")
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


@dataclass
class ConstraintSystem:
    """Sparse exact-rational homogeneous system over the ansatz unknowns."""

    ansatz: Ansatz
    tags: tuple[str, ...]
    rows: list[dict[int, Fraction]]
    provenance: list[Provenance]

    @property
    def n_unknowns(self) -> int:
        return self.ansatz.n_unknowns

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def evaluate(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """Row values at a concrete unknown assignment."""
        return [sum((c * vector[k] for k, c in row.items()), _ZERO)
                for row in self.rows]

    def satisfied_by(self, vector: Sequence[Fraction]) -> bool:
        return all(v == 0 for v in self.evaluate(vector))


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b")) -> ConstraintSystem:
    """Expand the ansatz residuals into linear rows by coefficient matching.

    For each tag and generator tuple, the residual of the tagged map
    (Ansatz.tagged_map) is computed once.  Residuals are linear in the
    map and never substitute b, and the algebra is b-free, so the residual
    is Q[b]-linear: its b^k part is unknown k's column.  Each (target
    generator, monomial in d, l, m, g) of the residual becomes one row
    {k: coefficient of b^k}; no all-zero row arises.  Row order is (tag,
    tuple, target, monomial), with unknowns ascending within a row, and
    is deterministic.
    """
    tags = normalize_tags(tags)
    bad = [t for t in tags if t not in ASSEMBLE_TAGS]
    if bad:
        raise SolverError(f"tag(s) not assemblable as linear constraints: "
                          f"{', '.join(bad)} (lem2 is checked, not solved)")
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    tagged = ansatz.tagged_map()

    rows: list[dict[int, Fraction]] = []
    provenance: list[Provenance] = []
    for tag in tags:
        for args in itertools.product(algebra.generators(), repeat=TAG_ARITY[tag]):
            coords: dict[tuple[GeneratorId, Monomial], dict[int, Fraction]] = {}
            for gt, poly in residual(tagged, tag, args).value.terms.items():
                for (p, q, r, s, k), coeff in poly.terms.items():
                    coords.setdefault((gt, (p, q, r, s, 0)), {})[k] = coeff
            for gt, mono in sorted(coords, key=lambda c: (sort_key(c[0]), c[1])):
                row = coords[(gt, mono)]
                rows.append({k: row[k] for k in sorted(row)})
                provenance.append(Provenance(tag, tuple(args), gt, mono))
    return ConstraintSystem(ansatz, tags, rows, provenance)


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


def _rref(rows: Iterable[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows, as pivot-column -> row.

    Each stored row has coefficient 1 on its pivot column and no support
    on any other pivot column.  RREF is unique, so the result does not
    depend on the insertion order beyond the rows' span.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = dict(row)
        while True:
            hit = [c for c in r if c in pivots]
            if not hit:
                break
            for c in hit:
                factor = r.pop(c)
                for c2, v2 in pivots[c].items():
                    if c2 == c:
                        continue
                    s = r.get(c2, _ZERO) - factor * v2
                    if s:
                        r[c2] = s
                    else:
                        r.pop(c2, None)
        if not r:
            continue
        lead = min(r)
        # Fraction / (int or Fraction) is exact; int / int would be a float.
        inv = _ONE / r[lead]
        r = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            factor = prow.get(lead)
            if factor is None:
                continue
            for c2, v2 in r.items():
                s = prow.get(c2, _ZERO) - factor * v2
                if s:
                    prow[c2] = s
                else:
                    prow.pop(c2, None)
        pivots[lead] = r
    return pivots


def nullspace(system: ConstraintSystem) -> SolutionSpace:
    """Exact rational nullspace with a canonical, integer-normalized basis.

    One basis vector per free column of the RREF, with the free unknown
    set to 1; vectors are scaled to coprime integers with positive leading
    entry, so identical inputs give bit-identical bases.
    """
    n = system.n_unknowns
    pivots = _rref(system.rows)
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
    family templates; anything that fails is reported verbatim."""
    ansatz = space.ansatz
    templates = family_templates(ansatz.algebra)
    names = [name for name, _ in templates]
    columns = [ansatz.vector_of(phi) for _, phi in templates]
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
