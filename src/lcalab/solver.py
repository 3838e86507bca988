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
The residual is taken of the tagged map, in which unknown k enters as
the coefficient b^k: the algebra is b-free and residuals never
substitute b, so the b^k part of the one residual is the column of
unknown k.  Every bracket coefficient is free of the indices, so that
residual is one computation per row template, keyed by the tag, the
families of the tuple and the coincidence pattern of the generator pairs
on which the identity evaluates phi (the slot table PHI_SLOTS): only the
unknowns it names change from tuple to tuple.  Assembly evaluates one
residual per template, stores each column as (slot, offset from the
slot's base unknown) and instantiates the rows of every tuple by integer
arithmetic; slots on the same pair name the same unknowns, so the
template already holds their sum (see _tuple_rows).  The rows stream
straight into an incremental elimination, so a solve holds only the
pivot rows of the reduced row echelon form, never the rows; the rows are
rebuilt on demand, with their provenance, for tests and reports.  Every
entry is an exact rational, an int or a Fraction (never a float), and
every division has a Fraction operand or is an exact floor division; the
reduced row echelon form is unique, so the emitted basis is
deterministic bit for bit.

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
basis vector as one more column.  One builder, Ansatz._map, makes every
map from the unknowns: the tagged ansatz map, the tagged basis map and,
with the tag b^0, each concrete map.

Every vector over the unknowns is a sparse Row, {unknown index: nonzero
value} with the indices ascending: the constraint rows, the pivot rows,
the solution vectors and the template columns alike.  No vector holds an
entry per unknown, so the work on a vector grows with its support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import Algebra, GeneratorId
from .bimaps import (
    BilinearMap,
    FamilyError,
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

# The slot table: the generator pairs on which each assembled identity
# evaluates phi in bimaps.residual, one (left, right) per slot, where an
# operand is an argument position or, for an inner bracket, a pair of them:
# def1a phi(x,y), phi(y,x); def1b phi(x,[yz]), phi(x,y), phi(x,z); lem1
# phi([xy],z), phi(y,z), phi(x,z).
PHI_SLOTS = {
    "def1a": ((0, 1), (1, 0)),
    "def1b": ((0, (1, 2)), (0, 1), (0, 2)),
    "lem1": (((0, 1), 2), (1, 2), (0, 2)),
}

# Largest ansatz the solver builds, about five times the largest bench
# ladder case (10,368 unknowns).
MAX_UNKNOWNS = 50_000

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A constraint row, a pivot row, a solution vector or a template column.
Row = dict[int, Fraction]


class Unknown(NamedTuple):
    """One ansatz coefficient: the d^dpow * l^lpow part of the target
    component of phi(left, right)."""

    left: GeneratorId
    right: GeneratorId
    target: GeneratorId
    dpow: int
    lpow: int

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
    class s.  The index of an unknown is the mixed-radix number (left,
    right, target, monomial), each generator at its position in
    Algebra.generators() (see _encode).
    """

    def __init__(self, algebra: Algebra, degree: int):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
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
        m = algebra.modulus
        self.class0 = [k for k, u in enumerate(self.unknowns)
                       if (u.target.index - u.left.index - u.right.index) % m == 0]
        self._n_gens = n_gens
        self._n_monos = len(monos)
        self._position = {g: i for i, g in enumerate(gens)}
        self._mono_position = {pq: i for i, pq in enumerate(monos)}

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def _encode(self, left: int, right: int, target: int, mono: int) -> int:
        """The index of the unknown at the given generator positions and
        monomial position: the mixed-radix number (left, right, target,
        mono) in the radices (n, n, n, monomials), n generators.  Generators
        are family-major, so position = family position * m + index."""
        n = self._n_gens
        return ((left * n + right) * n + target) * self._n_monos + mono

    def _map(self, terms: Iterable[tuple[int, int, Fraction]]) -> BilinearMap:
        """The map sum c * b^i * (unknown k) over the triples (i, k, c),
        each (i, k) at most once: unknown k = (left, right, target, d^p l^q)
        contributes the term c b^i d^p l^q on target at (left, right)."""
        entries: dict[GenPair, dict[GeneratorId, dict[Monomial, Fraction]]] = {}
        for i, k, coeff in terms:
            u = self.unknowns[k]
            entries.setdefault((u.left, u.right), {}).setdefault(u.target, {})[
                (u.dpow, u.lpow, 0, 0, i)] = coeff
        table = {
            pair: self.algebra.element({gt: Poly(monos) for gt, monos in targets.items()})
            for pair, targets in entries.items()
        }
        return BilinearMap(self.algebra, table)

    def map_from_vector(self, vector: Row) -> BilinearMap:
        """Assemble the concrete map with the given unknown values, a Row;
        an index outside 0 .. n_unknowns - 1 raises SolverError."""
        for k in vector:
            if not 0 <= k < self.n_unknowns:
                raise SolverError(f"vector index {k} outside the unknowns "
                                  f"0 .. {self.n_unknowns - 1}")
        return self._map((0, k, coeff) for k, coeff in vector.items())

    def shift(self, k: int, s: int) -> int:
        """The index of sigma_s of unknown k: the same unknown with its
        target index moved by s (mod m).

        The target is the third digit of k (see _encode), and generators
        run index-innermost within each family, so the shift moves only
        that digit; it keeps the order of the unknowns within one class.
        """
        m = self.algebra.modulus
        i = k // self._n_monos % self._n_gens % m
        # the encoding is linear in each digit
        return k + self._encode(0, 0, (i + s) % m - i, 0)

    def lift(self, entries: Row, s: int) -> Row:
        """The Row of sigma_s o phi, for phi given by its Row: each value
        moves to the shifted unknown, and the indices stay ascending (see
        shift).  The one place where sigma_s acts on a vector: nullspace
        lifts the solution vectors, and _listing the constraint rows."""
        return {self.shift(k, s): value for k, value in entries.items()}

    def tagged_map(self) -> BilinearMap:
        """The class-0 ansatz map with unknown k set to the tag b^k.

        The other classes are left out (see lift).  Any residual of this
        map is a polynomial whose b^k part is the residual of the map with
        unknown k set to 1 and every other unknown 0.
        """
        return self._map((k, k, 1) for k in self.class0)

    def vector_of(self, phi: BilinearMap) -> Row:
        """The Row of a concrete map on the unknown coordinates.

        Raises if the map has support outside the ansatz space (degree too
        high, or a b-dependent coefficient).
        """
        position = self._position
        vector: Row = {}
        for (gi, gj), value in phi.table.items():
            for gt, poly in value.terms.items():
                for mono, coeff in poly.terms.items():
                    if mono[2] or mono[3] or mono[4]:
                        raise SolverError(f"map coefficient {poly} uses a variable "
                                          f"outside d, l")
                    q = self._mono_position.get(mono[:2])
                    if q is None:
                        raise SolverError(f"map exceeds the degree-{self.degree} ansatz "
                                          f"at {Unknown(gi, gj, gt, mono[0], mono[1])}")
                    vector[self._encode(position[gi], position[gj], position[gt], q)] = coeff
        return {k: vector[k] for k in sorted(vector)}


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
    """Sparse exact-rational homogeneous system over the ansatz unknowns.

    It holds the row count and the reduced row echelon form (pivot
    column -> row, see _rref) of the class-0 rows, not the rows.  The
    class-0 solutions, lifted by sigma_s for s = 0..m-1, are the solutions
    of the whole system, and ``n_rows`` counts every class, m times the
    class-0 rows.  ``listing``, the (Provenance, Row) pairs, and ``rows``
    are rebuilt from the ansatz and the tags on each access: one more
    class-0 assembly, lifted onto every class (see _listing).
    """

    ansatz: Ansatz
    tags: tuple[str, ...]
    n_rows: int
    pivots: dict[int, Row]

    @property
    def n_unknowns(self) -> int:
        return self.ansatz.n_unknowns

    @property
    def listing(self) -> list[tuple[Provenance, Row]]:
        return _listing(self.ansatz, self.tags)

    @property
    def rows(self) -> list[Row]:
        return [row for _, row in self.listing]


def _tuple_rows(ansatz: Ansatz, tags: tuple[str, ...]) -> Iterator[
        tuple[str, tuple[GeneratorId, ...], dict[GeneratorId, dict[Monomial, Row]]]]:
    """The class-0 rows of each (tag, tuple), unsorted: (tag, args,
    target -> monomial -> row).

    Residuals are linear in the map and never substitute b, and the
    algebra is b-free, so the residual of Ansatz.tagged_map is
    Q[b]-linear: its b^k part is unknown k's column.  Each (target
    generator, monomial in d, l, m, g) of the residual is one row
    {k: coefficient of b^k}; no all-zero row arises.

    That residual is evaluated once per template key, at the first tuple
    that has it: the tag, the families of the tuple, and the coincidence
    pattern of its slots (PHI_SLOTS), each slot mapped to the first slot
    on the same generator pair, or to None where an inner bracket is
    zero.  Bracket coefficients do not depend on the indices, so the
    residual at any tuple of the key is the same computation; only the
    unknowns it names change.  A class-0 unknown on the pair at generator
    positions (a, b) has its target index fixed at a + b, so its index is
    the slot's base, Ansatz._encode(a, b, (a + b) mod m, 0), plus an
    offset set by its target family and monomial alone.  The template
    stores each column as (slot, offset), and each tuple's rows are
    {base[slot] + offset: value}, in the order of the template's
    residual.  Slots on one pair name the same unknowns, so the template
    already holds their sum, under the first of them, without zero sums;
    slots on distinct pairs share no unknown.  Every target lies at the
    index sum of the tuple, so a template stores a target by its
    family's first position.
    """
    algebra = ansatz.algebra
    gens = algebra.generators()
    n, m = len(gens), algebra.modulus
    stride = n * ansatz._n_monos
    family = {f: i for i, f in enumerate(algebra.families)}
    # [x_a y_b] is the generator at position inner[a // m, b // m] +
    # (a + b) mod m, or zero if that is None.
    inner = {(family[r.left], family[r.right]):
             None if r.target is None else family[r.target] * m for r in algebra.rules()}

    def operand(spec, args):
        if type(spec) is int:
            return args[spec]
        a, b = args[spec[0]], args[spec[1]]
        first = inner[a // m, b // m]
        return None if first is None else first + (a + b) % m

    tagged = ansatz.tagged_map()
    templates: dict[tuple, list] = {}
    for tag in tags:
        slots = PHI_SLOTS[tag]
        for args in itertools.product(range(n), repeat=TAG_ARITY[tag]):
            bases = []
            for left, right in slots:
                a, b = operand(left, args), operand(right, args)
                bases.append(None if a is None or b is None
                             else ansatz._encode(a, b, (a + b) % m, 0))
            key = (tag, tuple(a // m for a in args),
                   tuple(None if base is None else bases.index(base) for base in bases))
            gen_args = tuple(gens[a] for a in args)
            total = sum(args) % m
            template = templates.get(key)
            if template is None:
                first_slot = {}
                for i, base in enumerate(bases):
                    if base is not None:
                        first_slot.setdefault(base // stride, i)
                template = templates[key] = []
                for gt, poly in residual(tagged, tag, gen_args).value.terms.items():
                    rows: dict[Monomial, list] = {}
                    for (p, q, r, s, k), coeff in poly.terms.items():
                        i = first_slot[k // stride]
                        rows.setdefault((p, q, r, s, 0), []).append((i, k - bases[i], coeff))
                    template.append((ansatz._position[gt] - total, list(rows.items())))
            yield tag, gen_args, {
                gens[first + total]: {mono: {bases[i] + offset: coeff
                                             for i, offset, coeff in columns}
                                      for mono, columns in rows}
                for first, rows in template}


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
                listing.append((Provenance(tag, args, gt, mono),
                                ansatz.lift(dict(sorted(rows[mono].items())), s)))
    return listing


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b")) -> ConstraintSystem:
    """Expand the class-0 ansatz residuals into linear rows by coefficient
    matching, and eliminate them as they come.

    The residual of the tagged class-0 map is computed once per row
    template, not per generator tuple, and the rows of each tuple are
    instantiated from it (see _tuple_rows); each row goes straight into
    _rref, so only the class-0 pivots are ever held.  The
    other m - 1 classes are not assembled: their rows are the class-0
    rows lifted by sigma_s, so ``n_rows`` is m times the class-0 rows,
    and nullspace lifts the solutions.  The system's ``listing`` and
    ``rows`` rebuild the rows of every class in the order (tag, tuple,
    target, monomial), which is deterministic.
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
    return ConstraintSystem(ansatz, tags, m * n_rows, pivots)


# ---------------------------------------------------------------------------
# Exact nullspace
# ---------------------------------------------------------------------------

def _normalize_vector(vector: Row) -> Row:
    """Scale a Row of int/Fraction entries to coprime ints with the entry
    of the lowest unknown positive, in integer arithmetic only."""
    denoms = lcm(*(v.denominator for v in vector.values()))
    ints = {k: v.numerator * (denoms // v.denominator) for k, v in vector.items()}
    common = gcd(*ints.values())
    if ints and ints[min(ints)] < 0:
        common = -common
    return {k: v // common for k, v in ints.items()}


@dataclass
class SolutionSpace:
    """Exact nullspace of a constraint system, as made by nullspace: the
    basis vectors, as Rows of coprime ints, and basis[i], the concrete
    map of vectors[i].  The ansatz is the system's, and the dimension is
    the number of vectors."""

    system: ConstraintSystem
    vectors: list[Row]
    basis: list[BilinearMap]

    @property
    def ansatz(self) -> Ansatz:
        return self.system.ansatz

    @property
    def dimension(self) -> int:
        return len(self.vectors)


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
        entries = _normalize_vector({c: entries[c] for c in sorted(entries)})
        lifted += [(ansatz.shift(f, s), ansatz.lift(entries, s))
                   for s in range(m)]
    lifted.sort(key=lambda free_vector: free_vector[0])
    vectors = [vector for _, vector in lifted]
    basis = [ansatz.map_from_vector(v) for v in vectors]
    return SolutionSpace(system, vectors, basis)


def solve_bider(algebra: Algebra, degree: int,
                tags: Iterable[str] = ("def1a", "def1b")) -> SolutionSpace:
    """Assemble, solve, and re-verify: the classification oracle.

    Class 0 is solved and lifted onto every class (see nullspace).  Every
    reported basis map, lifted or not, is re-checked against the solved
    identities with the independent residual engine (defense in depth
    against elimination and lift bugs), in one verify_map sweep of the
    tagged basis map sum_i b^i phi_i, built by Ansatz._map from the
    basis vectors.  That is exact for the reason assembly is: the algebra
    and the phi_i are b-free, the phi_i have int coefficients and no
    residual substitutes b, so the b^i part of each tagged residual is
    the residual of phi_i, and the sweep memo makes each bracket once for
    all vectors.  A failure raises InternalCheckError naming the lowest
    failing vector i, the lowest b-exponent among the failures, with the
    first three failures of verify_map on phi_i alone.
    """
    ansatz = Ansatz(algebra, degree)
    system = assemble(ansatz, tags)
    space = nullspace(system)
    if not space.basis:
        return space
    tagged = ansatz._map((i, k, c) for i, vector in enumerate(space.vectors)
                         for k, c in vector.items())
    report = verify_map(tagged, system.tags)
    if not report.passed:
        i = min(mono[4] for r in report.failures for poly in r.value.terms.values()
                for mono in poly.terms)
        failures = verify_map(space.basis[i], system.tags).failures
        raise InternalCheckError(
            f"internal check failed: basis vector {i} has nonzero residuals: "
            + "; ".join(str(r) for r in failures[:3]))
    return space


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def family_templates(algebra: Algebra) -> list[tuple[str, BilinearMap]]:
    """The closed-form family instances of this algebra, once per shift s
    = 0..m-1: the shifted bracket, on every algebra, then the g-component
    "clw_g(s=k)" wherever make_family accepts g.  The shifted bracket is
    named "clw_a(s=k)" on an (L, G) table and "cw_shift(s=k)" elsewhere,
    the names the reports of the catalog algebras already carry.
    """
    shifts = range(algebra.modulus)
    name = "clw_a" if algebra.families == ("L", "G") else "cw_shift"
    templates = [(f"{name}(s={s})", make_family(algebra, "cw_shift", shift=s))
                 for s in shifts]
    try:
        templates += [(f"clw_g(s={s})", make_family(algebra, "clw_shift", shift=s, a=0, g=1))
                      for s in shifts]
    except FamilyError:
        pass
    return templates


def express_all_in_span(columns: Sequence[Row],
                        targets: Sequence[Row]) -> list[list[Fraction] | None]:
    """Exact coordinates of each target in the span of columns, or None for
    a target outside it, from one elimination of [columns | targets].

    Columns and targets are Rows over the unknowns.  Their entries are
    scattered into one row per unknown in their support, {column: value},
    and eliminated in ascending unknown order; target t is column n + t,
    right of the n given columns, and each coordinate list runs over the
    columns.  The RREF is unique, and no row reduction among the target
    columns changes a target in the span, so each result is the same as
    an elimination of [columns | target] alone: target t is in the span
    iff no pivot row whose pivot is a target column has a nonzero entry in
    column n + t, and its coordinates are then column n + t of the pivot
    rows of the given columns.  If the columns are linearly dependent,
    free coordinates are set to 0.
    """
    n_cols = len(columns)
    rows: dict[int, Row] = {}
    for j, vector in enumerate([*columns, *targets]):
        for k, value in vector.items():
            rows.setdefault(k, {})[j] = value
    pivots = _rref(rows[k] for k in sorted(rows))
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


@dataclass
class MatchReport:
    """Expression of each solution basis vector in the family templates:
    combinations[i] is {template name: coefficient}, over every template
    with zeros included, for basis vector i, or None if that vector lies
    outside the span of the templates."""

    combinations: list[dict[str, Fraction] | None]

    @property
    def fully_matched(self) -> bool:
        return None not in self.combinations


def match_templates(space: SolutionSpace) -> MatchReport:
    """Try to express every basis vector as a rational combination of the
    family templates, one MatchReport entry per vector.

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
    return MatchReport([None if coords is None else dict(zip(names, coords))
                        for coords in express_all_in_span(columns, space.vectors)])


def solver_report(space: SolutionSpace, match: MatchReport) -> dict:
    """The full JSON report of a classification run, from its solution
    space and match_templates(space).

    "matched" gives each matched basis vector with the nonzero
    coefficients of its combination; "unmatched" gives each other one
    with its map verbatim, the same dict as its entry in "basis".
    """
    ansatz = space.ansatz
    basis = [map_to_dict(phi) for phi in space.basis]
    entries = list(enumerate(match.combinations))
    return {
        "algebra": ansatz.algebra.name,
        "degree": ansatz.degree,
        "tags": list(space.system.tags),
        "unknowns": ansatz.n_unknowns,
        "rows": space.system.n_rows,
        "dimension": space.dimension,
        "basis": basis,
        "matched": [{"basis": i, "combination": {n: str(c) for n, c in combination.items() if c}}
                    for i, combination in entries if combination is not None],
        "unmatched": [{"basis": i, "map": basis[i]}
                      for i, combination in entries if combination is None],
    }
