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
pivot rows of the reduced row echelon form (mod p also those of one
block, below), never the rows; reports read only the row count, and
ConstraintSystem.rows rebuilds the rows on demand.  Every row entry is an
exact rational, an int or a Fraction (never a float).

Assembly has two modes.  With p = 0 it eliminates every row exactly; with
a prime p, solve_bider's p = PRIME = 2^61 - 1, it eliminates a subset S of
the rows over GF(p).  S is the rows of every def1a tuple, of the def1b
tuples whose z has index 0 and, unless def1b is assembled too, of the lem1
tuples whose y has index 0 (SUBSET_ARGS), about 1/m of those; a skipped
tuple is still keyed and counted, so the row count and the rebuilt rows
are those of the complete system.  Assembly reduces each coefficient of an
integer template mod p once (see _tuple_rows), and _rref keeps residues.
Each modular row reduces an integer row, an exact row of S or D times one,
for D the least common multiple of the rule denominators, so rank_p(S) <=
rank_Q(S) for every prime p, one that divides D included.  nullspace
rebuilds each entry of each basis vector v_f (free column f) from its
residue by rational reconstruction, a candidate congruent to the residue,
and the post-solve re-check (below), which covers every tuple, decides
whether the result stands.  v_f has 1 at f, 0 on the other free columns of
S mod p, and its support is f and pivot columns below f.  If the re-check
passes, v_f is a rational solution of the complete system, so column f
depends on earlier columns over Q: the free columns of S mod p are free
over Q.  The kernel of S contains the complete kernel, so rank_p(S) <=
rank_Q(S) <= rank_Q(complete): there are at least as many free columns of
S mod p as over Q, and the two sets are equal; v_f is then the exact basis
vector of its free column, because that vector is unique.  So the emitted
basis is the one an exact elimination of every row gives, bit for bit, and
its dimension is exact.  If the re-check refuses it, solve_bider solves
the complete system once more with p = 0, in exact arithmetic, in which
every division has a Fraction operand or is an exact floor division.  The
reduced row echelon form is unique, so the emitted basis is deterministic
bit for bit.  The elimination and the reconstruction, exact and mod p, are
the kernels of lcalab.linalg.

Mod p the def1b and lem1 rows are assembled by translation.  The three phi
slots of def1b share their left argument x, and those of lem1 their right
argument z: the free argument of the tag (FREE_ARGS).  tau_i moves the
index of the free side's generator of each unknown, and that of its
target, by i within the family (Ansatz.translate).  Every bracket
coefficient is free of the indices, and neither the families nor the
coincidence pattern of the slots depend on the free index, so the rows of
a tuple with its free argument moved by i are tau_i of the rows of the
tuple.  So only the tuples whose free argument has index 0 are
enumerated, each row count taken m times, which covers the m translates.
SUBSET_ARGS restricts another argument, so the translates of the tuples of
S among them are the tuples of S.  Their rows are eliminated as one block
per tag, and the block's pivot rows, each translated by tau_i for i =
0..m-1, stream into the main elimination after the def1a rows.  tau_i is
an injective column map, so the streamed rows span the row space of S mod
p, and the reduced row echelon form, which is unique, is that of S, pivot
by pivot and value by value.  Only the insertion order of the pivots
differs, and it is not part of the result: nullspace reads the pivots by
column.  With p = 0 every tuple is enumerated and every row goes into one
elimination.

Every algebra is a loop algebra over Z_m, so the index shift
sigma_s: Z_k -> Z_{k+s} commutes with d and with the bracket in either
slot: it lies in the centroid.  An unknown (left, right, target, d^p l^q)
is in index class target.index - left.index - right.index (mod m); every
row involves one class only, and phi -> sigma_s o phi maps the rows and
the solutions of class 0 onto those of class s.  So only class 0 is
assembled and eliminated, and each class-0 basis vector is lifted by
sigma_s for s = 0..m-1; the reported row count is m times the class-0
rows.  That the lifted basis is complete for the classes s != 0, and
that each lift is a solution, follow from the centroid argument, not
from elimination; the unlifted solve in tests/test_solver.py checks it.

The class-0 basis is the one stored result of a solve: each basis
vector of the whole system is a pair (class-0 vector j, shift s) (see
SolutionSpace), so the work after the solve is done once per class-0
vector.  The re-check is one verify_map sweep of the tagged map sum_j b^j
phi_j of the class-0 basis maps, whose b^j parts are the residuals of
phi_j by the argument of assembly; it covers every tuple (see
verify_map), so the certification of the row subset stays exact, and the
b-exponents of its failures name the failing class-0 vectors, so a failed
solve is diagnosed from it.  The template match eliminates the shift-0
templates once, with each class-0 vector as one more column.  The one
lift is a rename: sigma_s of a class-0 map keeps every pair and every
coefficient and moves each target index by s, so the serialized map of
basis vector (j, s) is that of class0[j] with its targets renamed by
SolutionSpace.renames[s], one table per shift, and the lift check
compares those tables with Ansatz.shift, the index arithmetic that orders
the lifts.  One builder, Ansatz._map, makes every map: the tagged basis
map and, with the tag b^0, each concrete map.

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
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .algebra import Algebra, BracketRule, GeneratorId
from .bimaps import (
    PHI_SLOTS,
    TAG_ARITY,
    BilinearMap,
    FamilyError,
    VerifyReport,
    make_family,
    map_to_dict,
    normalize_tags,
    residual,
    verify_map,
)
from .linalg import (
    Row,
    _normalize_vector,
    _reconstruct,
    _rref,
    express_all_in_span,
)
from .poly import Monomial, Poly, Var


class SolverError(ValueError):
    """Invalid solver request or failed internal consistency check."""


class InternalCheckError(SolverError):
    """A solved class-0 basis vector failed the residual re-check, or a
    rename table of the lift failed the lift check: a solver bug, not bad
    input."""


# Tags usable as linear constraints; lem2 is a consequence of the others
# and is only ever checked, never assembled.
ASSEMBLE_TAGS = ("def1a", "def1b", "lem1")

# The row subset assemble eliminates mod a prime (see the module docstring):
# for each tag, the argument whose index must be 0, or None to keep every
# tuple; def1b keeps the tuples with z of index 0 and lem1 those with y of
# index 0.  Next to def1b no lem1 tuple is kept: the def1b rows of the subset
# already have the full rank (1,004 of the 2,168 subset rows of CLW(m=2, b=-1)
# at degree 2 were lem1 rows, with rank 190 either way); the re-check covers
# lem1.
SUBSET_ARGS = {"def1a": None, "def1b": 2, "lem1": 1}

# The argument every phi slot of a tag shares, or None (see the module
# docstring): x, the left argument of each def1b slot, and z, the right one
# of each lem1 slot.  Mod a prime, assemble eliminates the subset rows of the
# tuples whose free argument has index 0 as one block, and streams its pivot
# rows translated by Ansatz.translate.
FREE_ARGS = {"def1a": None, "def1b": 0, "lem1": 2}

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
    kept: ``unknown`` decodes one from its index, and only class 0
    (target index = left + right mod m) is assembled and solved.
    ``shift`` carries an unknown of class 0 onto class s, and ``lift`` a
    Row: ConstraintSystem.rows lifts the rows with it.  The solutions are
    lifted by renaming generators (see SolutionSpace.renames).
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
        """Unknown k, decoded from the digits of its index (see _encode); an
        index that is not an int in 0 .. n_unknowns - 1, a bool included,
        raises SolverError."""
        if type(k) is not int or not 0 <= k < self.n_unknowns:
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
            if coeff:
                rest, mono = divmod(k, r)
                pair, target = divmod(rest, n)
                dpow, lpow = monos[mono]
                entries.setdefault(pair, {}).setdefault(target, {})[(dpow, lpow, 0, 0, i)] = coeff
        gens = self._gens
        return BilinearMap._raw(self.algebra, {
            (gens[pair // n], gens[pair % n]):
                {gens[target]: Poly(monos) for target, monos in targets.items()}
            for pair, targets in entries.items()})

    def map_from_vector(self, vector: Row) -> BilinearMap:
        """Assemble the concrete map with the given unknown values, a Row;
        an index that is not an int in 0 .. n_unknowns - 1, a bool
        included, raises SolverError."""
        for k in vector:
            if type(k) is not int or not 0 <= k < self.n_unknowns:
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
        shift).  ConstraintSystem.rows lifts the class-0 rows with it:
        sigma_s of a row of class 0 is the row of class s, since the
        residual of sigma_s o phi is sigma_s of the residual of phi."""
        return {self.shift(k, s): value for k, value in entries.items()}

    def translate(self, entries: Row, side: int, i: int) -> Row:
        """The Row of tau_i of a class-0 row or vector: each unknown with
        the index of its generator on ``side`` (0 left, 1 right) and of its
        target moved by i (mod m), each within its family.  tau_i maps class
        0 onto itself injectively; the indices need not stay ascending."""
        n, m = self._n_gens, self.algebra.modulus
        # the weight of the side digit (see _encode); shift moves the target
        weight = n ** (2 - side) * self._n_monos
        moved = {}
        for k, value in entries.items():
            a = k // weight % n % m
            moved[self.shift(k, i) + ((a + i) % m - a) * weight] = value
        return moved

    def vector_of(self, phi: BilinearMap) -> Row:
        """The Row of a concrete map on the unknown coordinates.

        Raises if the map has support outside the ansatz space (degree too
        high, or a b-dependent coefficient).
        """
        position = self._position
        vector: Row = {}
        for (gi, gj), value in phi._table.items():
            for gt, poly in value.items():
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
    p = 0, assemble's default, the exact form of every row, and with a
    prime ``p``, the form of the row subset SUBSET_ARGS keeps mod p, whose
    entries are residues, while ``n_rows`` and ``rows`` are always the
    complete system.  Mod p the subset's def1b and lem1 rows are
    eliminated as the translates of one block per tag (see assemble); the
    form is the same, and the insertion order of ``pivots`` is not part of
    it.  A modular form is exact only once the basis nullspace rebuilds
    from it passes the re-check: solve_bider runs that check, and solves
    the complete system again with p = 0 if it fails.  The class-0
    solutions, lifted by sigma_s for s = 0..m-1, are the solutions
    of the whole system, and ``n_rows`` counts every class, m times the
    class-0 rows.
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


def _tuple_rows(ansatz: Ansatz, tags: tuple[str, ...], p: int = 0) -> Iterator[
        tuple[str, tuple[GeneratorId, ...], int, dict[GeneratorId, dict[Monomial, Row]]]]:
    """The class-0 rows of each (tag, tuple): (tag, args, class-0 row
    count, target -> monomial -> row), with unsorted unknowns, exact and
    of every tuple with p = 0.  With a prime p, a def1b or lem1 tuple is
    enumerated only if its free argument (FREE_ARGS) has index 0, and its
    row count is that of its m translates, m times its own: the families
    and the coincidence pattern, so the template, do not depend on the
    free index (see the module docstring).  A tuple outside the subset
    (SUBSET_ARGS) is keyed and counted but yields no rows, and a key met
    only at such tuples is counted without a template; each template
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
    sums and the rows they empty; a row is (monomial, (slot, offset,
    coefficient, slot, ...)).  The exact rows so keep the values and the
    int or Fraction types of the residual of the algebra itself.  The
    modular rows come from an integer copy: its rules are scaled by D, the
    least common multiple of their denominators, so its def1b and lem1
    rows, one bracket per term, are D times the exact rows, integer rows
    with the same row space over Q, and are reduced mod p as they are.
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
        rule.left, rule.right, rule.target,
        Poly({mono: c * scale for mono, c in rule.coeff.terms.items()})) for rule in rules])
    units = unit.generators()
    # one map per slot, an assembled identity has at most three; its value
    # is the same on every pair
    pairs = list(itertools.product(units, repeat=2))
    slot_maps = [BilinearMap._raw(unit, dict.fromkeys(pairs, {
        gt: Poly({(dpow, lpow, 0, 0, i * stride + t * m * r + q): 1
                  for q, (dpow, lpow) in enumerate(ansatz._monos)})
        for t, gt in enumerate(units)})) for i in range(3)]
    # per tag: the unmerged rows of each family tuple's residual (holding
    # its Poly values took more peak RSS), and each key's template
    residuals: dict[tuple[int, ...], list] = {}
    templates: dict[tuple, tuple[int, list | None]] = {}
    # one object per residue: a negative coefficient's is a large int
    residues: dict[int, int] = {}

    def build(tag, families, pattern):
        # the row count of one key and its template, [(first target position,
        # rows)]; a tuple per entry in a row took 30% more peak memory
        terms = residuals.get(families)
        if terms is None:
            terms = residuals[families] = []
            for gt, poly in residual(slot_maps[:len(PHI_SLOTS[tag])], tag,
                                     [units[f] for f in families]).value.terms.items():
                by_mono: dict[Monomial, list] = {}
                for mono, coeff in poly.terms.items():
                    by_mono.setdefault(mono[:4] + (0,), []).extend(
                        (*divmod(mono[4], stride), coeff))
                terms.append((family[gt.family] * m, [(mono, tuple(columns))
                                                      for mono, columns in by_mono.items()]))
        size, template = 0, []
        for first, unmerged in terms:
            rows = []
            for mono, columns in unmerged:
                sums: dict[tuple[int, int], Fraction] = {}
                # zip(*[iter(columns)] * 3) reads the entries three at a time
                for slot, offset, coeff in zip(*[iter(columns)] * 3):
                    key = (pattern[slot], offset)
                    total = sums.get(key, 0) + coeff
                    if total:
                        sums[key] = total
                    else:
                        del sums[key]
                if sums:
                    entries = []
                    for (slot, offset), coeff in sums.items():
                        c = residues.setdefault(coeff, coeff % p) if p else coeff
                        if c:
                            entries += slot, offset, c
                    rows.append((mono, tuple(entries)))
            size += len(rows)
            if rows:
                template.append((first, rows))
        return size, template

    for tag in tags:
        residuals.clear()
        templates.clear()
        restrict = SUBSET_ARGS[tag] if p else None
        # the def1b rows already give the subset its full rank
        dropped = p and tag == "lem1" and "def1b" in tags
        free = FREE_ARGS[tag] if p else None
        ranges, translates = [range(n)] * TAG_ARITY[tag], 1
        if free is not None:
            # the tuples whose free argument has index 0, each counted with
            # its m translates
            ranges[free], translates = range(0, n, m), m
        for args in itertools.product(*ranges):
            bases = []
            for left, right in PHI_SLOTS[tag]:
                a, b = operand(left, args), operand(right, args)
                bases.append(None if a is None or b is None
                             else ansatz._encode(a, b, (a + b) % m, 0))
            families = tuple(a // m for a in args)
            pattern = tuple(None if base is None else bases.index(base) for base in bases)
            skipped = dropped or restrict is not None and args[restrict] % m
            entry = templates.get((families, pattern))
            if entry is None or entry[1] is None and not skipped:
                # a key met only at skipped tuples keeps no template (less RSS)
                size, template = build(tag, families, pattern)
                entry = templates[families, pattern] = size, None if skipped else template
            size, template = entry
            size *= translates
            gen_args = tuple(gens[a] for a in args)
            if skipped:
                yield tag, gen_args, size, {}
                continue
            total = sum(args) % m
            yield tag, gen_args, size, {
                gens[first + total]: {mono: {bases[i] + offset: coeff for i, offset, coeff
                                             in zip(*[iter(columns)] * 3)}
                                      for mono, columns in rows}
                for first, rows in template}


def assemble(ansatz: Ansatz, tags: Iterable[str] = ("def1a", "def1b"),
             p: int = 0) -> ConstraintSystem:
    """Expand the class-0 ansatz residuals into linear rows by coefficient
    matching, and eliminate them as they come: every row exactly with
    p = 0, the default, or, with a prime p, the rows of the tuples
    SUBSET_ARGS keeps mod p.  solve_bider asks for p = PRIME, and its
    re-check makes that solve exact (see the module docstring);
    nullspace(assemble(...)) with p = 0 is exact on its own.  ``n_rows``
    and ``rows`` always count and rebuild every row.

    Mod p the def1b and lem1 rows come from the tuples whose free argument
    has index 0 (see _tuple_rows): for each of those tags they are
    eliminated as one block, and each pivot row of the block goes into the
    main elimination translated by tau_i for i = 0..m-1 (Ansatz.translate),
    after the def1a rows.  The translates span the row space of the
    subset, so the pivots are its reduced row echelon form, equal in value
    to an elimination of its rows; their insertion order is not part of
    the result.

    One residual is evaluated per (tag, family tuple), not per generator
    tuple, and the rows of each tuple are instantiated from the templates
    made from it (see _tuple_rows); each row goes straight into _rref, so
    only the class-0 pivots, and mod p those of one block, are ever held.
    The other m - 1 classes are not assembled: their rows are the class-0
    rows lifted by sigma_s, so ``n_rows`` is m times the class-0 rows, and
    SolutionSpace lifts the solutions.  The system's ``rows`` are the
    exact class-0 rows lifted by Ansatz.lift, in class-major order, which
    is deterministic.  Mod p the
    def1b and lem1 rows are those of the integer copy, D times the exact
    rows, for D the least common multiple of the denominators of the
    bracket rules; for p dividing D they may lose rank, which solve_bider's
    re-check catches.
    """
    tags = normalize_tags(tags)
    bad = [t for t in tags if t not in ASSEMBLE_TAGS]
    if bad:
        raise SolverError(f"tag(s) not assemblable as linear constraints: "
                          f"{', '.join(bad)} (lem2 is checked, not solved)")
    m = ansatz.algebra.modulus
    n_rows = 0

    def rows_of(tuples) -> Iterator[Row]:
        nonlocal n_rows
        for _, _, size, by_target in tuples:
            n_rows += size
            for rows in by_target.values():
                yield from rows.values()

    def stream() -> Iterator[Row]:
        for tag, tuples in itertools.groupby(_tuple_rows(ansatz, tags, p), key=itemgetter(0)):
            free = FREE_ARGS[tag] if p else None
            if free is None:
                yield from rows_of(tuples)
                continue
            block = _rref(rows_of(tuples), p).values()
            # the free argument is on this side of every slot
            side = PHI_SLOTS[tag][0].index(free)
            # each row's translates one after another: streaming every row
            # per i was three times slower on CW(m=80) d2
            for row in block:
                for i in range(m):
                    yield ansatz.translate(row, side, i)

    pivots = _rref(stream(), p)
    return ConstraintSystem(ansatz, tags, m * n_rows, pivots, p)


# ---------------------------------------------------------------------------
# Nullspace
# ---------------------------------------------------------------------------

@dataclass
class SolutionSpace:
    """Nullspace of a constraint system, as made by nullspace: class0[j]
    is the basis vector of the j-th free class-0 column, a Row of coprime
    ints, exact of an exact system (p = 0) and of a modular one only once
    solve_bider's re-check has passed.

    Basis vector i of the whole system is sigma_s of class0[j] for (j, s)
    = lifts[i], ordered by free column, sigma_s of that of class0[j], as
    an elimination of every class would give (see nullspace).  No lift is
    stored: renames[s] maps the name of each generator to that of sigma_s
    of it, and basis_dicts serializes a lift as the class-0 map with its
    targets renamed."""

    system: ConstraintSystem
    class0: list[Row]

    @cached_property
    def lifts(self) -> list[tuple[int, int]]:
        shift, class0 = self.ansatz.shift, self.class0
        return sorted(itertools.product(range(len(class0)), range(self.ansatz.algebra.modulus)),
                      key=lambda lift: shift(max(class0[lift[0]]), lift[1]))

    @cached_property
    def renames(self) -> list[dict[str, str]]:
        algebra = self.ansatz.algebra
        # one string per generator, shared by every table
        names = {g: str(g) for g in algebra.generators()}
        return [{name: names[algebra.gen(g.family, g.index + s)] for g, name in names.items()}
                for s in range(algebra.modulus)]

    @property
    def ansatz(self) -> Ansatz:
        return self.system.ansatz

    @property
    def dimension(self) -> int:
        return len(self.class0) * self.ansatz.algebra.modulus


def nullspace(system: ConstraintSystem) -> SolutionSpace:
    """Rational nullspace with a canonical, integer-normalized basis.

    One vector per free class-0 column of the RREF, in column order, with
    the free unknown set to 1, scaled to coprime integers with positive
    leading entry.  Nothing is lifted and no map is built: SolutionSpace
    derives the lifts by sigma_s for s = 0..m-1, ordered by free column.
    sigma_s keeps the column order within a class, so they are the
    free-column basis of the whole system, and identical inputs give
    bit-identical bases.

    Of a modular system, each entry -prow[f] mod p is rebuilt by rational
    reconstruction (see _reconstruct), as a candidate congruent to it; the
    basis is exact once its class-0 vectors pass the re-check of
    solve_bider (see the module docstring).
    """
    pivots, p = system.pivots, system.p
    class0 = []
    for f in system.ansatz._class0():
        if f in pivots:
            continue
        entries = {f: 1}
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff:
                entries[pc] = _reconstruct(p - coeff, p) if p else -coeff
        class0.append(_normalize_vector({c: entries[c] for c in sorted(entries)}))
    return SolutionSpace(system, class0)


def _recheck(space: SolutionSpace) -> VerifyReport:
    """The re-check of solve_bider: the report of one verify_map sweep of
    the tagged sum sum_j b^j phi_j of the class-0 basis maps, in which the
    failures of phi_j are the terms of b-exponent j."""
    ansatz, class0 = space.ansatz, space.class0
    tagged = ansatz._map((j, k, c) for j, v in enumerate(class0) for k, c in v.items())
    return verify_map(tagged, space.system.tags)


def _check_renames(space: SolutionSpace) -> None:
    """The lift check: one rename table per shift s = 0..m-1, in which each
    generator goes to the target of sigma_s of an unknown on it, as
    Ansatz.shift moves it and Ansatz.unknown decodes it.  O(m n) for n
    generators; raises InternalCheckError naming the shift and the
    generator of the first disagreement."""
    ansatz = space.ansatz
    for s in range(ansatz.algebra.modulus):
        for t, g in enumerate(ansatz._gens):
            want = str(ansatz.unknown(ansatz.shift(ansatz._encode(0, 0, t, 0), s)).target)
            got = space.renames[s].get(str(g))
            if got != want:
                raise InternalCheckError(f"internal check failed: the shift-{s} rename sends "
                                         f"{g} to {got}, not to {want}")


def solve_bider(algebra: Algebra, degree: int,
                tags: Iterable[str] = ("def1a", "def1b")) -> SolutionSpace:
    """Assemble, solve, and re-verify: the classification oracle.

    Class 0 is solved mod PRIME from the row subset of SUBSET_ARGS and
    lifted onto every class (see SolutionSpace), and checked twice, as
    defense in depth against elimination and lift bugs:

    - The re-check (_recheck): one verify_map sweep of the tagged sum
      sum_j b^j phi_j of the class-0 basis maps, exact for the reason
      assembly is and covering every tuple, so passing it also makes the
      modular solve of the row subset exact.  The lifts need no residuals:
      sigma_s lies in the centroid.
    - The lift check (_check_renames) of the rename tables, the one lift
      every report reads, against Ansatz.shift, which orders the lifts.

    The re-check alone decides whether the modular solve stands, for any
    prime, one that divides a denominator included: if it fails, the solve
    is retried once, on every row with p = 0.  The lift check depends on
    neither the prime nor the rows, so it runs once, on the space
    returned.  If the retry fails the re-check too, its b-exponents name
    the failing class-0 vectors, and InternalCheckError names the one
    lifted first, class0[j], the first basis vector lifted from it, and
    the first three failures of verify_map on the map of class0[j].
    """
    ansatz = Ansatz(algebra, degree)
    space = nullspace(assemble(ansatz, tags, p=PRIME))
    report = _recheck(space)
    if not report.passed:
        space = nullspace(assemble(ansatz, tags))
        report = _recheck(space)
    if report.passed:
        _check_renames(space)
        return space
    failing = {mono[4] for r in report.failures for poly in r.value.terms.values()
               for mono in poly.terms}
    i, j = next((i, j) for i, (j, _) in enumerate(space.lifts) if j in failing)
    failures = verify_map(ansatz.map_from_vector(space.class0[j]), space.system.tags).failures
    raise InternalCheckError(
        f"internal check failed: class-0 basis vector {j}, lifted first to basis vector "
        f"{i}, has nonzero residuals: " + "; ".join(str(r) for r in failures[:3]))


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
    sigma_s of its shift-0 template, which lies in class 0, so sigma_s of a
    class-0 vector is in the span of the templates iff that vector is in
    the span of the shift-0 templates, and its coordinates on the shift-s
    templates are then those of the vector.  The shift-0 template columns
    are eliminated once, with each class-0 basis vector as one more column
    (see express_all_in_span): basis vector (j, s) gets the coordinates of
    class0[j] on the shift-s templates and 0 on the others, and is
    unmatched iff class0[j] is.  Templates of distinct classes share no
    unknown, so this is the result of one elimination over every template
    of every shift, the free coordinates 0 included.
    """
    ansatz = space.ansatz
    names, columns = [], []
    for name, phi in family_templates(ansatz.algebra, (0,)):
        try:
            columns.append(ansatz.vector_of(phi))
        except SolverError:
            continue
        names.append(name.removesuffix("(s=0)"))
    coords = express_all_in_span(columns, space.class0)
    return MatchReport([
        None if coords[j] is None else
        {f"{name}(s={t})": coords[j][c] if t == s else _ZERO
         for c, name in enumerate(names) for t in range(ansatz.algebra.modulus)}
        for j, s in space.lifts])


def basis_dicts(space: SolutionSpace, indices: Iterable[int]) -> Iterator[dict]:
    """map_to_dict of basis map i for each i in indices, in their order.

    Basis vector (j, s) = lifts[i] is sigma_s of class0[j], which renames
    the targets and keeps every pair, every coefficient string and the
    order of each value list: on one pair, the targets of a class-0 map
    share one index, so the list is in family order before and after.  So
    each class-0 map is serialized once, and each lift of it is that dict
    with its targets renamed by renames[s]; no lifted map is built.
    """
    serialized: dict[int, dict] = {}
    for i in indices:
        j, s = space.lifts[i]
        if j not in serialized:
            serialized[j] = map_to_dict(space.ansatz.map_from_vector(space.class0[j]))
        rename, phi = space.renames[s], serialized[j]
        yield {**phi, "entries": [{**entry, "value": [
            {**term, "gen": rename[term["gen"]]} for term in entry["value"]]}
            for entry in phi["entries"]]}


def solver_report(space: SolutionSpace, match: MatchReport) -> dict:
    """The full JSON report of a classification run, from its solution
    space and match_templates(space).

    "matched" gives each matched basis vector with the nonzero
    coefficients of its combination; "unmatched" gives each other one
    with its map verbatim, the same dict as its entry in "basis", from
    basis_dicts.
    """
    ansatz = space.ansatz
    basis = list(basis_dicts(space, range(space.dimension)))
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
