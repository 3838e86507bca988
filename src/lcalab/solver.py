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
Every bracket coefficient is free of the indices and sigma_s lies in the
centroid, so what each of the generator pairs on which an identity
evaluates phi (its slots, PHI_SLOTS) contributes to the residual at a
tuple depends on the tag and the families of the tuple alone, up to the
unknowns it names.  Assembly evaluates one residual per (tag, family
tuple), at the index-0 generators of an m = 1 copy of the algebra, with
one map per slot in which each class-0 unknown enters as a tag b^k: the
copy is b-free and residuals never substitute b, so the b^k part of the
residual is the column of tag k.  It stores each column as (slot, offset
from the slot's base unknown); the template of a tuple merges the columns
of its slots on one pair, which name the same unknowns, and the rows of
every tuple are instantiated from it by integer arithmetic (see
_tuple_rows).  No list of the unknowns is kept: an unknown is decoded
from its index on demand (see Ansatz).  The rows stream
straight into an incremental elimination, so a solve holds only the
pivot rows of the reduced row echelon form, never the rows; reports read
only the row count, and ConstraintSystem.rows rebuilds the rows on
demand.  Every row entry is an exact rational, an int or a Fraction
(never a float).

solve_bider eliminates a subset S of the rows, over GF(p), p = PRIME =
2^61 - 1.  S is the rows of every def1a tuple, of the def1b tuples whose
z has index 0 and, unless def1b is assembled too, of the lem1 tuples
whose y has index 0 (SUBSET_ARGS), about 1/m of those; a skipped tuple is
still keyed and counted, so the row count and the rebuilt rows are
those of the complete system.  Assembly reduces each template
coefficient mod p once (see _tuple_rows), and _rref keeps residues.
nullspace rebuilds each entry of each basis vector v_f (free column f)
from its residue by rational reconstruction, and the post-solve
re-check (below), which covers every tuple, makes the result exact.  v_f has 1 at f, 0 on
the other free columns of S mod p, and its support is f and pivot columns
below f.  If the re-check passes, v_f is a rational solution of the
complete system, so column f depends on earlier columns over Q: the free
columns of S mod p are free over Q.  The kernel of S contains the complete
kernel, so rank_p(S) <= rank_Q(S) <= rank_Q(complete): there are at least
as many free columns of S mod p as over Q, and the two sets are equal; v_f
is then the exact basis vector of its free column, because that vector is
unique.  So the emitted basis is the one an exact elimination of every row
gives, bit for bit, and its dimension is exact.  If the re-check fails, or
p divides a denominator, or an entry cannot be reconstructed, solve_bider
solves the complete system once more with p = 0, in exact arithmetic, in
which every division has a Fraction operand or is an exact floor
division.  The reduced row echelon form is unique, so the emitted basis is
deterministic bit for bit.  The elimination and the reconstruction, exact
and mod p, are the kernels of lcalab.linalg.

Every algebra is a loop algebra over Z_m, so the index shift
sigma_s: Z_k -> Z_{k+s} commutes with d and with the bracket in either
slot: it lies in the centroid.  An unknown (left, right, target, d^p l^q)
is in index class target.index - left.index - right.index (mod m); every
row involves one class only, and phi -> sigma_s o phi maps the rows and
the solutions of class 0 onto those of class s.  So only class 0 is
assembled and eliminated, and each class-0 basis vector is lifted by
sigma_s for s = 0..m-1; the reported row count is m times the class-0
rows.  Every reported basis map is checked to be a solution: the
class-0 ones by residuals, and the lifted ones as sigma_s of those (see
below); that the lifted basis is complete for the classes s != 0 follows
from the centroid argument, not from elimination, and the unlifted solve
in tests/test_solver.py checks it.

The work after the solve is done once per class-0 basis vector; its
lifts are derived by index arithmetic and get no map.  The re-check is
one verify_map sweep of the tagged map sum_j b^j phi_j of the class-0
basis maps, whose b^j parts are the residuals of phi_j by the argument of
assembly; it covers every tuple (see verify_map), so the certification of
the row subset stays exact.  The lift check moves the target of each
decoded class-0 unknown by s: the result must be the reported vector.
The template match eliminates the shift-0 templates once, with each class
component of each basis vector, moved down to class 0, as one more column.
solver_report serializes each class-0 map once and renames its targets
for each lift.  One builder, Ansatz._map, makes every map: the tagged
basis map and, with the tag b^0, each concrete map.

Every vector over the unknowns is a sparse Row, {unknown index: nonzero
value} with the indices ascending: the constraint rows, the pivot rows,
the solution vectors and the template columns alike.  No vector holds an
entry per unknown, so the work on a vector grows with its support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .algebra import Algebra, BracketRule, GeneratorId
from .bimaps import (
    PHI_SLOTS,
    TAG_ARITY,
    BilinearMap,
    FamilyError,
    make_family,
    map_to_dict,
    normalize_tags,
    residual,
    verify_map,
)
from .linalg import (
    Row,
    UnluckyPrime,
    _normalize_vector,
    _reconstruct,
    _residue,
    _rref,
    express_all_in_span,
)
from .poly import Monomial, Poly, Var


class SolverError(ValueError):
    """Invalid solver request or failed internal consistency check."""


class InternalCheckError(SolverError):
    """A solved basis vector failed the post-solve check, its residual
    re-check or its lift check: a solver bug, not bad input."""


# Tags usable as linear constraints; lem2 is a consequence of the others
# and is only ever checked, never assembled.
ASSEMBLE_TAGS = ("def1a", "def1b", "lem1")

# The row subset solve_bider eliminates (see the module docstring): for each
# tag, the argument whose index must be 0, or None to keep every tuple; def1b
# keeps the tuples with z of index 0 and lem1 those with y of index 0.  Next
# to def1b no lem1 tuple is kept: the def1b rows of the subset already have
# the full rank (1,004 of the 2,168 subset rows of CLW(m=2, b=-1) at degree
# 2 were lem1 rows, with rank 190 either way), and the re-check covers lem1.
SUBSET_ARGS = {"def1a": None, "def1b": 2, "lem1": 1}

# The most unknowns an Ansatz may have, counted over every index class: a
# larger one is refused before any work, which bounds the time and memory of
# a solve.  The largest benchmark solve has 1,296 unknowns.
MAX_UNKNOWNS = 50_000

# The prime of the modular elimination, 2^61 - 1 (see the module docstring).
PRIME = 2 ** 61 - 1

_ZERO = Fraction(0)


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
    tag of the unknowns (see _tuple_rows).

    The index of an unknown is the mixed-radix number (left, right,
    target, monomial), each generator at its position in
    Algebra.generators() (see _encode), and no list of the unknowns is
    kept: ``unknown`` decodes one from its index, ``index_class`` reads
    its class off the digits, and only class 0 (target index = left +
    right mod m) is assembled and solved.  ``shift`` and ``lift`` carry
    class 0 onto class s; ``lift`` lifts both the solution vectors and
    the rows.
    """

    def __init__(self, algebra: Algebra, degree: int):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise SolverError(f"degree must be a non-negative integer, got {degree!r}")
        gens = algebra.generators()
        n_gens = len(gens)
        count = n_gens ** 3 * (degree + 1) * (degree + 2) // 2
        if count > MAX_UNKNOWNS:
            raise SolverError(f"ansatz of {count} unknowns ({n_gens} generators, degree "
                              f"{degree}) exceeds the cap of {MAX_UNKNOWNS}")
        for rule in algebra.rules():
            if Var.B in rule.coeff.variables():
                raise SolverError(
                    "the solver needs a numeric b; instantiate the algebra first")
        monos = sorted(((p, q) for p in range(degree + 1)
                        for q in range(degree + 1 - p)), key=lambda pq: (sum(pq), pq[1]))
        self.algebra = algebra
        self.degree = degree
        self.n_unknowns = count
        self._gens = gens
        self._monos = monos
        self._n_gens = n_gens
        self._n_monos = len(monos)
        self._position = {g: i for i, g in enumerate(gens)}
        self._mono_position = {pq: i for i, pq in enumerate(monos)}

    def _encode(self, left: int, right: int, target: int, mono: int) -> int:
        """The index of the unknown at the given generator positions and
        monomial position: the mixed-radix number (left, right, target,
        mono) in the radices (n, n, n, monomials), n generators.  Generators
        are family-major, so position = family position * m + index."""
        n = self._n_gens
        return ((left * n + right) * n + target) * self._n_monos + mono

    def unknown(self, k: int) -> Unknown:
        """Unknown k, decoded from the digits of its index (see _encode)."""
        if not 0 <= k < self.n_unknowns:
            raise SolverError(f"unknown index {k} outside 0 .. {self.n_unknowns - 1}")
        gens, n = self._gens, self._n_gens
        rest, mono = divmod(k, self._n_monos)
        pair, target = divmod(rest, n)
        return Unknown(gens[pair // n], gens[pair % n], gens[target], *self._monos[mono])

    def _class0(self) -> Iterator[int]:
        """The indices of the class-0 unknowns, ascending: on each pair, the
        targets at the index sum, one per family."""
        n, m, r = self._n_gens, self.algebra.modulus, self._n_monos
        for left, right in itertools.product(range(n), repeat=2):
            for target in range((left + right) % m, n, m):
                base = self._encode(left, right, target, 0)
                yield from range(base, base + r)

    def _map(self, terms: Iterable[tuple[int, int, Fraction]]) -> BilinearMap:
        """The map sum c * b^i * (unknown k) over the triples (i, k, c),
        each (i, k) at most once: unknown k = (left, right, target, d^p l^q)
        contributes the term c b^i d^p l^q on target at (left, right)."""
        entries: dict[int, dict[int, dict[Monomial, Fraction]]] = {}
        n, r, monos = self._n_gens, self._n_monos, self._monos
        for i, k, coeff in terms:
            rest, mono = divmod(k, r)
            pair, target = divmod(rest, n)
            dpow, lpow = monos[mono]
            entries.setdefault(pair, {}).setdefault(target, {})[(dpow, lpow, 0, 0, i)] = coeff
        gens, element = self._gens, self.algebra.element
        return BilinearMap(self.algebra, {
            (gens[pair // n], gens[pair % n]):
                element({gens[target]: Poly(monos) for target, monos in targets.items()})
            for pair, targets in entries.items()})

    def map_from_vector(self, vector: Row) -> BilinearMap:
        """Assemble the concrete map with the given unknown values, a Row;
        an index outside 0 .. n_unknowns - 1 raises SolverError."""
        for k in vector:
            if not 0 <= k < self.n_unknowns:
                raise SolverError(f"vector index {k} outside the unknowns "
                                  f"0 .. {self.n_unknowns - 1}")
        return self._map((0, k, coeff) for k, coeff in vector.items())

    def index_class(self, k: int) -> int:
        """The index class of unknown k: its target index minus its left
        and right indices (mod m), read off the digits of k (see _encode;
        a generator position is its index mod m)."""
        pair, target = divmod(k // self._n_monos, self._n_gens)
        left, right = divmod(pair, self._n_gens)
        return (target - left - right) % self.algebra.modulus

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
        shift).  nullspace lifts the solution vectors with it, solver_report
        moves them down, and ConstraintSystem.rows lifts the class-0 rows:
        sigma_s of a row of class 0 is the row of class s, since the
        residual of sigma_s o phi is sigma_s of the residual of phi."""
        return {self.shift(k, s): value for k, value in entries.items()}

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


@dataclass
class ConstraintSystem:
    """Sparse exact-rational homogeneous system over the ansatz unknowns.

    It holds the row count and the reduced row echelon form (pivot
    column -> row, see _rref) of the class-0 rows, not the rows; with
    p = 0, assemble's default, the exact form, and with a prime ``p``,
    the form of the rows mod p, whose entries are residues.  The pivots may
    be those of the row subset solve_bider eliminates (see assemble),
    while ``n_rows`` and ``rows`` are always the complete system.  A
    modular or subset form is exact only once the basis nullspace
    rebuilds from it passes the re-check: solve_bider runs that check,
    and solves the complete system again with p = 0 if it fails or the
    prime is unlucky (see UnluckyPrime).  The class-0 solutions,
    lifted by sigma_s for s = 0..m-1, are the solutions of the whole
    system, and ``n_rows`` counts every class, m times the class-0 rows.
    ``rows`` is rebuilt exactly from the ansatz and the tags on each
    access: one more class-0 assembly (see _tuple_rows), each row's
    unknowns sorted, lifted by Ansatz.lift for s = 0..m-1, class by class.
    """

    ansatz: Ansatz
    tags: tuple[str, ...]
    n_rows: int
    pivots: dict[int, Row]
    p: int = 0

    @property
    def n_unknowns(self) -> int:
        return self.ansatz.n_unknowns

    @property
    def rows(self) -> list[Row]:
        class0 = [{k: row[k] for k in sorted(row)}
                  for *_, by_target in _tuple_rows(self.ansatz, self.tags)
                  for rows in by_target.values() for row in rows.values()]
        return [self.ansatz.lift(row, s)
                for s in range(self.ansatz.algebra.modulus) for row in class0]


def _tuple_rows(ansatz: Ansatz, tags: tuple[str, ...], p: int = 0,
                subset: bool = False) -> Iterator[
        tuple[str, tuple[GeneratorId, ...], int, dict[GeneratorId, dict[Monomial, Row]]]]:
    """The class-0 rows of each (tag, tuple): (tag, args, class-0 row
    count, target -> monomial -> row), with unsorted unknowns.  With
    ``subset``, a tuple outside the subset (SUBSET_ARGS) is keyed and
    counted but yields no rows, and a key met only at such tuples is
    counted without a template.  With a prime p, each template
    coefficient is reduced mod p once, as the template is built, and a
    coefficient that vanishes mod p is left out, so a row can be empty;
    the row count does not change.

    The residual is evaluated once per (tag, family tuple), at the index-0
    generators of an m = 1 copy of the algebra (see the module docstring),
    with one map per phi slot (PHI_SLOTS): in slot i the class-0 unknown
    at offset o is the tag b^(i * stride + o), stride = n * monomials for
    n generators.  Each (target, monomial in d, l, m, g) of that residual
    is one row {(slot, offset): coefficient}.  A class-0 unknown on the
    pair at generator positions (a, b) has its target index fixed at a +
    b, so its index is the slot's base, Ansatz._encode(a, b, (a + b) mod
    m, 0), plus an offset set by its target family and monomial alone;
    each tuple's rows are {base[slot] + offset: value}.

    The row template of a tuple is keyed by the tag, the families and the
    coincidence pattern of its slots, each slot mapped to the first slot
    on the same generator pair, or to None where an inner bracket is zero
    (that slot contributes nothing).  Slots on one pair name the same
    unknowns, so the template sums their columns under the first of them,
    in slot order, as the identity's last step adds them, and drops zero
    sums and the rows they empty.  The exact rows so keep the values and
    the int or Fraction types of the residual of the algebra itself.  The
    modular rows come from an integer copy: its rules are scaled by D, the
    least common multiple of their denominators, so the def1b and lem1
    rows, one bracket per term, are D times too large and are multiplied
    by D^-1 mod p (UnluckyPrime if p divides D).
    """
    algebra = ansatz.algebra
    gens = algebra.generators()
    n, m, r = len(gens), algebra.modulus, ansatz._n_monos
    stride = n * r
    family = {f: i for i, f in enumerate(algebra.families)}
    rules = algebra.rules()
    # [x_a y_b] is the generator at position inner[a // m, b // m] +
    # (a + b) mod m, or zero if that is None.
    inner = {(family[rule.left], family[rule.right]):
             None if rule.target is None else family[rule.target] * m for rule in rules}

    def operand(spec, args):
        if type(spec) is int:
            return args[spec]
        a, b = args[spec[0]], args[spec[1]]
        first = inner[a // m, b // m]
        return None if first is None else first + (a + b) % m

    scale = lcm(*(c.denominator for rule in rules for c in rule.coeff.terms.values())) if p else 1
    # Poly() stores the scaled coefficients as ints
    unit = Algebra(algebra.name, 1, algebra.families, [BracketRule(
        rule.left, rule.right, rule.target, rule.coeff if scale == 1 else
        Poly({mono: c * scale for mono, c in rule.coeff.terms.items()})) for rule in rules])
    units = unit.generators()
    # one map per slot, an assembled identity has at most three; its value
    # is the same on every pair
    pairs = list(itertools.product(units, repeat=2))
    slot_maps = [BilinearMap(unit, dict.fromkeys(pairs, unit.element({
        gt: Poly({(dpow, lpow, 0, 0, i * stride + t * m * r + q): 1
                  for q, (dpow, lpow) in enumerate(ansatz._monos)})
        for t, gt in enumerate(units)}))) for i in range(3)]
    raw: dict[tuple, list] = {}

    def build(tag, families, pattern, skipped):
        # the row count of one key and its template, [(first target
        # position, [(monomial, slots, offsets, coefficients)])], a tuple of
        # each per row, or None if skipped: a key first met at tuples the
        # subset skips is only counted
        rows = raw.get((tag, families))
        if rows is None:
            value = residual(slot_maps[:len(PHI_SLOTS[tag])], tag,
                             [units[f] for f in families]).value
            rows = raw[tag, families] = []
            for gt, poly in value.terms.items():
                by_mono: dict[Monomial, list] = {}
                for mono, coeff in poly.terms.items():
                    by_mono.setdefault(mono[:4] + (0,), []).append(
                        (*divmod(mono[4], stride), coeff))
                rows.append((family[gt.family] * m, [(mono, *zip(*columns))
                                                     for mono, columns in by_mono.items()]))
        merge = any(j is not None and j != i for i, j in enumerate(pattern))
        if not merge and (skipped or not p):
            return sum(len(mono_rows) for _, mono_rows in rows), None if skipped else rows
        inverse = 1 if tag == "def1a" or not p else _residue(Fraction(1, scale), p)
        size, template = 0, []
        for first, mono_rows in rows:
            kept = []
            for mono, *columns in mono_rows:
                columns = zip(*columns)
                if merge:
                    sums: dict[tuple[int, int], Fraction] = {}
                    for i, offset, coeff in columns:
                        key = (pattern[i], offset)
                        total = sums.get(key, 0) + coeff
                        if total:
                            sums[key] = total
                        else:
                            del sums[key]
                    if not sums:
                        continue
                    columns = [(*key, coeff) for key, coeff in sums.items()]
                size += 1
                if skipped:
                    continue
                if p:
                    columns = [(i, offset, c) for i, offset, coeff in columns
                               if (c := coeff * inverse % p)]
                kept.append((mono, *(zip(*columns) if columns else ((), (), ()))))
            if kept:
                template.append((first, kept))
        return size, None if skipped else template

    templates: dict[tuple, tuple[int, list]] = {}
    for tag in tags:
        restrict = SUBSET_ARGS[tag] if subset else None
        # the def1b rows already give the subset its full rank
        dropped = subset and tag == "lem1" and "def1b" in tags
        for args in itertools.product(range(n), repeat=TAG_ARITY[tag]):
            bases = []
            for left, right in PHI_SLOTS[tag]:
                a, b = operand(left, args), operand(right, args)
                bases.append(None if a is None or b is None
                             else ansatz._encode(a, b, (a + b) % m, 0))
            families = tuple(a // m for a in args)
            pattern = tuple(None if base is None else bases.index(base) for base in bases)
            key = (tag, families, pattern)
            gen_args = tuple(gens[a] for a in args)
            total = sum(args) % m
            skipped = dropped or restrict is not None and args[restrict] % m
            entry = templates.get(key)
            if entry is None or entry[1] is None and not skipped:
                entry = templates[key] = build(tag, families, pattern, skipped)
            size, template = entry
            if skipped:
                yield tag, gen_args, size, {}
                continue
            by_target = {
                gens[first + total]: {mono: {bases[i] + offset: coeff
                                             for i, offset, coeff in zip(slots, offsets, coeffs)}
                                      for mono, slots, offsets, coeffs in rows}
                for first, rows in template}
            yield tag, gen_args, size, by_target


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b"),
             p: int = 0, subset: bool = False) -> ConstraintSystem:
    """Expand the class-0 ansatz residuals into linear rows by coefficient
    matching, and eliminate them as they come, exactly by default, or mod
    the prime p.  With ``subset``, only the rows of the tuples SUBSET_ARGS
    keeps are eliminated.  solve_bider asks for p = PRIME and the subset,
    and its re-check makes that solve exact (see the module docstring);
    nullspace(assemble(...)) with the defaults is exact on its own.
    ``n_rows`` and ``rows`` always count and rebuild every row.

    One residual is evaluated per (tag, family tuple), not per generator
    tuple, and the rows of each tuple are instantiated from the templates
    made from it (see _tuple_rows); each row goes straight into _rref, so
    only the class-0 pivots are ever held.  The other m - 1 classes are
    not assembled: their rows are the class-0 rows lifted by sigma_s, so
    ``n_rows`` is m times the class-0 rows, and nullspace lifts the
    solutions.  The system's ``rows`` are the exact class-0 rows lifted by
    Ansatz.lift, in class-major order, which is deterministic.  If p
    divides the least common multiple of the denominators of the bracket
    rules, and def1b or lem1 is assembled, UnluckyPrime is raised.
    """
    tags = normalize_tags(tags)
    bad = [t for t in tags if t not in ASSEMBLE_TAGS]
    if bad:
        raise SolverError(f"tag(s) not assemblable as linear constraints: "
                          f"{', '.join(bad)} (lem2 is checked, not solved)")
    n_rows = 0

    def stream() -> Iterator[Row]:
        nonlocal n_rows
        for _, _, size, by_target in _tuple_rows(ansatz, tags, p=p, subset=subset):
            n_rows += size
            for rows in by_target.values():
                yield from rows.values()

    pivots = _rref(stream(), p)
    m = ansatz.algebra.modulus
    return ConstraintSystem(ansatz, tags, m * n_rows, pivots, p)


# ---------------------------------------------------------------------------
# Nullspace
# ---------------------------------------------------------------------------

@dataclass
class SolutionSpace:
    """Nullspace of a constraint system, as made by nullspace: the basis
    vectors, as Rows of coprime ints, exact of an exact system (p = 0) and
    of a modular one only once solve_bider's re-check has passed.
    basis[i], the concrete map of vectors[i], is built with the others
    when basis is first read, and kept; the solver itself never reads it."""

    system: ConstraintSystem
    vectors: list[Row]

    @cached_property
    def basis(self) -> list[BilinearMap]:
        return [self.ansatz.map_from_vector(v) for v in self.vectors]

    @property
    def ansatz(self) -> Ansatz:
        return self.system.ansatz

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def nullspace(system: ConstraintSystem) -> SolutionSpace:
    """Rational nullspace with a canonical, integer-normalized basis.

    One vector per free class-0 column of the RREF, with the free unknown
    set to 1, scaled to coprime integers with positive leading entry; each
    is lifted by sigma_s for s = 0..m-1 (see Ansatz.lift).  The lifted
    vectors are ordered by free column: sigma_s keeps the column order
    within a class, so this is the free-column basis of the whole
    system, and identical inputs give bit-identical bases.  No map is
    built (see SolutionSpace).

    Of a modular system, each entry -prow[f] mod p is rebuilt by rational
    reconstruction (see _reconstruct), which raises UnluckyPrime where it
    fails; the basis is exact once its class-0 vectors pass the re-check
    of solve_bider (see the module docstring).
    """
    ansatz = system.ansatz
    pivots, p = system.pivots, system.p
    m = ansatz.algebra.modulus
    lifted = []
    for f in ansatz._class0():
        if f in pivots:
            continue
        entries = {f: 1}
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff:
                entries[pc] = _reconstruct(p - coeff, p) if p else -coeff
        entries = _normalize_vector({c: entries[c] for c in sorted(entries)})
        lifted += [(ansatz.shift(f, s), ansatz.lift(entries, s))
                   for s in range(m)]
    lifted.sort(key=lambda free_vector: free_vector[0])
    return SolutionSpace(system, [vector for _, vector in lifted])


def _checks(space: SolutionSpace) -> tuple[bool, int | None]:
    """The post-solve checks of solve_bider: whether the class-0 basis maps
    pass the re-check, and the lowest position at which the basis differs
    from the lifts of its class-0 vectors, or None.

    The class-0 basis vectors are the ones nullspace emits for s = 0:
    their free column, the highest unknown, is in class 0.  Their lifts
    are made without Ansatz.shift, from the decoded unknowns.
    """
    ansatz, vectors = space.ansatz, space.vectors
    if not vectors:
        return True, None
    class0 = [v for v in vectors if ansatz.index_class(max(v)) == 0]
    tagged = ansatz._map((j, k, c) for j, v in enumerate(class0) for k, c in v.items())
    passed = verify_map(tagged, space.system.tags).passed
    algebra, position = ansatz.algebra, ansatz._position
    lifts = []
    for vector in class0:
        # each unknown is decoded once and dropped at once: a list of them,
        # held across the shifts, raised classify's peak RSS by 0.1 MB
        moved = [{} for _ in range(algebra.modulus)]
        for k, c in vector.items():
            u = ansatz.unknown(k)
            for s, lift in enumerate(moved):
                lift[ansatz._encode(position[u.left], position[u.right],
                                    position[algebra.gen(u.target.family, u.target.index + s)],
                                    ansatz._mono_position[u.dpow, u.lpow])] = c
        lifts += moved
    lifts.sort(key=max)
    mismatch = next((i for i, (vector, lift) in enumerate(itertools.zip_longest(vectors, lifts))
                     if vector != lift), None)
    return passed, mismatch


def solve_bider(algebra: Algebra, degree: int,
                tags: Iterable[str] = ("def1a", "def1b")) -> SolutionSpace:
    """Assemble, solve, and re-verify: the classification oracle.

    Class 0 is solved mod PRIME from the row subset of SUBSET_ARGS (no
    lem1 row when def1b is solved too) and lifted onto every class (see
    nullspace), and every reported basis map is checked (defense in depth
    against elimination and lift bugs) in class 0 only (see _checks):

    - The re-check: one verify_map sweep of the tagged sum sum_j b^j phi_j
      of the class-0 basis maps against the solved identities, exact for
      the reason assembly is and covering every tuple, so passing it also
      makes the modular solve of the row subset exact.
    - The lift check, without residuals and without maps: each class-0
      vector lifted by index arithmetic must be the reported vector,
      value by value, in the reported order (by free column: sigma_s
      keeps the order within a class).  It shares no code with
      Ansatz.shift or Ansatz.lift, and sigma_s of a solution is a
      solution, because sigma_s lies in the centroid.

    The solve is retried once, on every row with p = 0 in exact
    arithmetic, if the prime is unlucky (UnluckyPrime: a denominator
    divisible by it, or an entry that rational reconstruction cannot
    rebuild), or if the re-check fails while the lift check passes.  A
    lift mismatch depends on neither the prime nor the rows, so it is
    never retried.  If either check fails on the final solve, one sweep
    of the tagged sum of the whole basis finds the lowest failing vector
    i, the lowest b-exponent among the failures, and InternalCheckError
    names it with the first three failures of verify_map on phi_i alone;
    if every vector passes, the lift gave valid but wrong vectors, and
    the error names the lowest position at which the basis differs from
    the lifts.
    """
    ansatz = Ansatz(algebra, degree)
    try:
        space = nullspace(assemble(ansatz, tags, p=PRIME, subset=True))
        passed, mismatch = _checks(space)
        retry = not passed and mismatch is None
    except UnluckyPrime:
        retry = True
    if retry:
        space = nullspace(assemble(ansatz, tags))
        passed, mismatch = _checks(space)
    if passed and mismatch is None:
        return space
    system, vectors = space.system, space.vectors
    tagged = ansatz._map((i, k, c) for i, vector in enumerate(vectors) for k, c in vector.items())
    report = verify_map(tagged, system.tags)
    if report.passed:
        raise InternalCheckError(f"internal check failed: basis vector {mismatch} is not "
                                 f"the index shift of a class-0 basis vector")
    i = min(mono[4] for r in report.failures for poly in r.value.terms.values()
            for mono in poly.terms)
    failures = verify_map(ansatz.map_from_vector(vectors[i]), system.tags).failures
    raise InternalCheckError(
        f"internal check failed: basis vector {i} has nonzero residuals: "
        + "; ".join(str(r) for r in failures[:3]))


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def family_templates(algebra: Algebra, shifts: Iterable[int] | None = None
                     ) -> list[tuple[str, BilinearMap]]:
    """The closed-form family instances of this algebra, once per shift s
    in shifts, 0..m-1 by default: the shifted bracket, on every algebra,
    then the g-component "clw_g(s=k)" wherever make_family accepts g.  The
    shifted bracket is named "clw_a(s=k)" on an (L, G) table and
    "cw_shift(s=k)" elsewhere, the names the reports of the catalog
    algebras already carry.
    """
    shifts = range(algebra.modulus) if shifts is None else shifts
    name = "clw_a" if algebra.families == ("L", "G") else "cw_shift"
    templates = [(f"{name}(s={s})", make_family(algebra, "cw_shift", shift=s))
                 for s in shifts]
    try:
        templates += [(f"clw_g(s={s})", make_family(algebra, "clw_shift", shift=s, a=0, g=1))
                      for s in shifts]
    except FamilyError:
        pass
    return templates


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
    ansatz degree) is left out: no solution can use it.

    The work is done in class 0.  The shift-s template of each kind is
    sigma_s of its shift-0 template, which lies in class 0, so a vector is
    in the span of the templates iff each of its class components, moved
    down to class 0 by sigma_-s, is in the span of the shift-0 templates,
    and the coefficients of the class-s component are its coordinates on
    the shift-s templates.  The shift-0 template columns are eliminated
    once, with each distinct moved-down component as one more column (see
    express_all_in_span): sigma_s of a class-0 basis vector gets the
    coordinates of that vector, and is unmatched iff it is.  Templates of
    distinct classes share no unknown, so this is the result of one
    elimination over every template of every shift, the free coordinates
    0 included.
    """
    ansatz = space.ansatz
    names, columns = [], []
    for name, phi in family_templates(ansatz.algebra, (0,)):
        try:
            columns.append(ansatz.vector_of(phi))
        except SolverError:
            continue
        names.append(name.removesuffix("(s=0)"))
    targets: dict[tuple, int] = {}
    components = []
    for vector in space.vectors:
        by_class: dict[int, Row] = {}
        for k, value in vector.items():
            s = ansatz.index_class(k)
            by_class.setdefault(s, {})[ansatz.shift(k, -s)] = value
        components.append({s: targets.setdefault(tuple(part.items()), len(targets))
                           for s, part in by_class.items()})
    coords = express_all_in_span(columns, [dict(part) for part in targets])
    return MatchReport([
        None if any(coords[t] is None for t in parts.values()) else
        {f"{name}(s={s})": coords[parts[s]][j] if s in parts else _ZERO
         for j, name in enumerate(names) for s in range(ansatz.algebra.modulus)}
        for parts in components])


def solver_report(space: SolutionSpace, match: MatchReport) -> dict:
    """The full JSON report of a classification run, from its solution
    space and match_templates(space).

    "matched" gives each matched basis vector with the nonzero
    coefficients of its combination; "unmatched" gives each other one
    with its map verbatim, the same dict as its entry in "basis".

    A vector v of class s (that of its highest unknown) is sigma_s of
    Ansatz.lift(v, -s), which map_to_dict serializes once per distinct Row;
    sigma_s renames the targets and re-sorts each value list (wrap-around
    mod m can reorder it), and keeps every pair and coefficient string.
    """
    ansatz = space.ansatz
    algebra = ansatz.algebra
    serialized: dict[tuple, dict] = {}
    basis = []
    for vector in space.vectors:
        s = ansatz.index_class(max(vector, default=0))
        key = tuple(ansatz.lift(vector, -s).items())
        if key not in serialized:
            serialized[key] = map_to_dict(ansatz.map_from_vector(dict(key)))
        moved = {str(g): (algebra.gen_sort_key(h), str(h)) for g in algebra.generators()
                 for h in [algebra.gen(g.family, g.index + s)]}
        basis.append({**serialized[key], "entries": [{**entry, "value": [
            {**term, "gen": moved[term["gen"]][1]}
            for term in sorted(entry["value"], key=lambda term: moved[term["gen"]])]}
            for entry in serialized[key]["entries"]]})
    entries = list(enumerate(match.combinations))
    return {
        "algebra": algebra.name,
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
