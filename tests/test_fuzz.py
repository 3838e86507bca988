"""Fuzzing of the input boundary, and property tests of the Poly kernel,
of the axiom check and of the solver's sparse elimination, exact and mod
p, its rational reconstruction and its template match.

parse_poly may raise only ParseError, algebra_from_dict only AlgebraError
and map_from_dict only MapError, whatever the input; anything else (a
RecursionError, a TypeError from an unexpected JSON type) would surface
in the CLI as an internal error instead of a usage error.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lcalab import (  # noqa: E402
    Algebra,
    AlgebraError,
    BilinearMap,
    BracketRule,
    MapError,
    ParseError,
    Poly,
    TAGS,
    VARS,
    Var,
    algebra_from_dict,
    make_catalog,
    map_from_dict,
    parse_poly,
)
from lcalab.poly import B, D, G, L, M  # noqa: E402
from lcalab.linalg import _reconstruct, _rref, express_all_in_span  # noqa: E402
from lcalab.solver import PRIME  # noqa: E402
from test_algebra import assert_axioms_match_oracle  # noqa: E402
from test_bimaps import assert_sweep_matches_memo_free  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, database=None)

GRAMMAR = "dlmgbx0123456789+-*/() "

nested = st.builds(
    lambda opens, inner, closes, sign: sign * opens + inner + ")" * closes,
    st.integers(0, 3000), st.text(GRAMMAR, max_size=6), st.integers(0, 3000),
    st.sampled_from(["(", "-", "-("]))

expressions = st.one_of(
    st.text(GRAMMAR, max_size=40),
    st.text(max_size=20),
    nested,
    st.integers(4000, 6000).map(lambda n: "7" * n),
)


@FUZZ
@given(expressions)
def test_parse_poly_raises_only_parse_error(text):
    try:
        parse_poly(text)
    except ParseError:
        pass


# JSON-shaped values; integers stay small because an algebra's generator
# table has (families * modulus)^2 entries.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)

family_names = st.sampled_from(["L", "G", ""])

rules = st.fixed_dictionaries({}, optional={
    "left": family_names | json_values,
    "right": family_names | json_values,
    "target": family_names | st.none() | json_values,
    "coeff": st.text(GRAMMAR, max_size=12) | json_values,
})

algebra_dicts = st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=6) | json_values,
    "modulus": st.integers(-1, 3) | json_values,
    "families": st.lists(family_names | st.text(max_size=2), max_size=3) | json_values,
    "b": st.sampled_from(["symbolic", "-1", "3/2", "1/0", "1e3", "x"]) | json_values,
    "rules": st.lists(rules | json_values, max_size=4) | json_values,
})


@FUZZ
@given(algebra_dicts | json_values)
def test_algebra_from_dict_raises_only_algebra_error(data):
    try:
        algebra_from_dict(data)
    except AlgebraError:
        pass


CW2 = make_catalog("cw", 2)

generators = st.sampled_from(["L:0", "L:1", "L:7", "G:0", "L", "L:x", ":1"])

value_items = st.fixed_dictionaries({}, optional={
    "gen": generators | json_values,
    "coeff": st.text(GRAMMAR, max_size=12) | json_values,
})

map_entries = st.fixed_dictionaries({}, optional={
    "left": generators | json_values,
    "right": generators | json_values,
    "value": st.lists(value_items | json_values, max_size=3) | json_values,
})

map_dicts = st.fixed_dictionaries({}, optional={
    "algebra": st.just(CW2.name) | json_values,
    "entries": st.lists(map_entries | json_values, max_size=3) | json_values,
})


@FUZZ
@given(map_dicts | json_values)
def test_map_from_dict_raises_only_map_error(data):
    try:
        map_from_dict(data, CW2)
    except MapError:
        pass


# -- the Poly kernel against a Fraction-only reference ---------------------------
#
# Poly keeps integral coefficients as int and the rest as Fraction.  The
# reference below computes with Fraction alone and shares no code with
# Poly: a polynomial is a plain dict from exponent 5-tuples to nonzero
# Fractions.

UNIT = (0, 0, 0, 0, 0)


def ref_add(p, q, sign=1):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, Fraction(0)) + sign * c
    return {mono: c for mono, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def ref_pow(p, n):
    out = {UNIT: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_subst(p, assignment):
    """assignment: slot -> reference polynomial."""
    out = {}
    for mono, c in p.items():
        term = {tuple(0 if i in assignment else e for i, e in enumerate(mono)): c}
        for slot, replacement in assignment.items():
            term = ref_mul(term, ref_pow(replacement, mono[slot]))
        out = ref_add(out, term)
    return out


def as_ref(terms):
    return {mono: Fraction(c) for mono, c in terms.items() if c}


def assert_matches(poly, ref):
    assert poly.terms == ref
    assert all(type(c) in (int, Fraction) for c in poly.terms.values())
    canonical = Poly(ref)
    assert poly == canonical
    assert hash(poly) == hash(canonical)
    assert str(poly) == str(canonical)


# Integral Fractions such as Fraction(6, 3) are drawn on purpose: Poly must
# store them as int, and still equal, hash and print like the mixed results
# of arithmetic.
coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(lambda n, k: Fraction(n * k, k), st.integers(-6, 6), st.integers(1, 4)),
)
monomials = st.tuples(*[st.integers(0, 2)] * 5)
term_maps = st.dictionaries(monomials, coefficients, max_size=5)
KERNEL = settings(max_examples=100, deadline=None, database=None)


@KERNEL
@given(term_maps)
def test_poly_stores_integral_coefficients_as_int(terms):
    poly = Poly(terms)
    assert_matches(poly, as_ref(terms))
    for c in poly.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)
    for c in terms.values():
        assert type(Poly.const(c).terms.get(UNIT, 0)) is (int if c.denominator == 1
                                                         else Fraction)


@KERNEL
@given(term_maps, term_maps, st.integers(0, 3), coefficients)
def test_ring_operations_match_reference(p_terms, q_terms, n, scalar):
    p, q = Poly(p_terms), Poly(q_terms)
    rp, rq = as_ref(p_terms), as_ref(q_terms)
    assert_matches(p + q, ref_add(rp, rq))
    assert_matches(p - q, ref_add(rp, rq, sign=-1))
    assert_matches(-p, ref_add({}, rp, sign=-1))
    assert_matches(p * q, ref_mul(rp, rq))
    assert_matches(p ** n, ref_pow(rp, n))
    assert_matches(p * scalar, ref_mul(rp, {UNIT: Fraction(scalar)} if scalar else {}))
    assert_matches(scalar + p, ref_add(rp, {UNIT: Fraction(scalar)} if scalar else {}))


@KERNEL
@given(term_maps, st.dictionaries(st.sampled_from(VARS), term_maps, min_size=1,
                                  max_size=2))
def test_subst_matches_reference(p_terms, assignment):
    poly = Poly(p_terms).subst({var: Poly(r) for var, r in assignment.items()})
    expected = ref_subst(as_ref(p_terms),
                         {var.slot: as_ref(r) for var, r in assignment.items()})
    assert_matches(poly, expected)


def test_wide_subst_matches_reference():
    wide = (D + L + M + G + 1) ** 6
    assert len(wide.terms) == 210
    ref_wide = ref_pow(as_ref((D + L + M + G + 1).terms), 6)
    assert_matches(wide, ref_wide)
    assignment = {Var.D: L - Fraction(1, 2) * B, Var.M: Fraction(6, 3) * G + 3}
    expected = ref_subst(ref_wide, {var.slot: as_ref(r.terms)
                                    for var, r in assignment.items()})
    assert_matches(wide.subst(assignment), expected)


def test_equal_polys_hash_and_print_alike():
    mixed = Poly.const(Fraction(3, 2)) * 2
    assert mixed == Poly.const(3) == Poly.const(Fraction(6, 2)) == 3
    assert hash(mixed) == hash(Poly.const(3))
    assert str(mixed) == str(Poly.const(3)) == "3"
    assert type(Poly.const(Fraction(6, 3)).terms[UNIT]) is int


# Poly.__mul__ hands back the other operand when one side is the unit,
# compared by value; the last unit holds Fraction(1, 1), as arithmetic
# results may.
UNITS = (Poly.one(), Poly.const(1), Poly.const(Fraction(2, 2)),
         Poly.const(Fraction(1, 2)) * 2)


@KERNEL
@given(term_maps, st.sampled_from(UNITS))
def test_unit_product_is_the_other_operand(terms, unit):
    poly = Poly(terms)
    for product in (unit * poly, poly * unit):
        assert_matches(product, as_ref(terms))


# The slot rule's memoized substitutions p(-s) and p(d+s), against a fresh
# subst on an equal polynomial without a memo.
spectral_terms = st.dictionaries(
    st.tuples(st.just(0), *[st.integers(0, 2)] * 3, st.just(0)), coefficients,
    min_size=1, max_size=3)


@KERNEL
@given(term_maps, st.lists(spectral_terms, min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_memoized_slot_substitution_matches_fresh_subst(terms, spectrals, rng):
    poly = Poly(terms)
    seen = (dict(poly.terms), hash(poly), str(poly))
    replacements = [r for s in map(Poly, spectrals) for r in (-s, D + s)]
    for replacement in rng.sample(replacements * 2, 2 * len(replacements)):
        expected = Poly(terms).subst({Var.D: replacement})
        assert_matches(poly._subst_d(replacement), expected.terms)
        # An equal replacement built apart finds the same entry.
        assert poly._subst_d(Poly(replacement.terms)) == expected
    assert (poly.terms, hash(poly), str(poly)) == seen
    assert bool(poly._memo) == any(mono[0] for mono in poly.terms)


# -- the axiom check against the bracket-only oracle of test_algebra ----------------

rule_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0), st.just(0),
              st.integers(0, 1)),
    st.integers(-3, 3), max_size=3).map(Poly)


@st.composite
def random_rule_algebras(draw):
    """One or two families, m <= 2, a random target and d, l, b coefficient
    per family pair: mostly not a Lie conformal algebra."""
    families = draw(st.sampled_from([("L",), ("L", "G")]))
    rules = []
    for left in families:
        for right in families:
            target, coeff = draw(st.sampled_from(families + (None,))), draw(rule_coeffs)
            # a null target is the zero bracket, whose coefficient is zero
            rules.append(BracketRule(left, right, target, coeff if target else Poly.zero()))
    return Algebra("Random", draw(st.integers(1, 2)), families, rules,
                   b=draw(st.sampled_from([None, -1, Fraction(3, 2)])))


@KERNEL
@given(random_rule_algebras())
def test_check_axioms_matches_bracket_oracle_on_random_rules(algebra):
    assert_axioms_match_oracle(algebra)


# -- verify_map's sweep memo against memo-free residuals ----------------------------

map_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0), st.just(0),
              st.integers(0, 1)),
    coefficients, max_size=2).map(Poly)


@st.composite
def random_maps(draw):
    """A random rule table, a random map on it (a d, l, b coefficient on a
    random target per generator pair, or nothing) and random tags."""
    algebra = draw(random_rule_algebras())
    gens = algebra.generators()
    table = {}
    for gi in gens:
        for gj in gens:
            target = draw(st.sampled_from(gens + [None]))
            if target is not None:
                table[(gi, gj)] = algebra.element({target: draw(map_coeffs)})
    return BilinearMap(algebra, table), draw(st.sets(st.sampled_from(TAGS), min_size=1))


@KERNEL
@given(random_maps())
def test_verify_map_matches_memo_free_residuals_on_random_maps(case):
    phi, tags = case
    assert_sweep_matches_memo_free(phi, tags)


# -- the sparse elimination against a dense Gauss-Jordan ---------------------------
#
# dense_rref shares no code with linalg._rref: it reduces a full Fraction
# matrix column by column and reads the pivot rows off the result.

def dense_rref(n_cols, rows):
    matrix = [[Fraction(row.get(c, 0)) for c in range(n_cols)] for row in rows]
    pivots = {}
    for c in range(n_cols):
        r = len(pivots)
        pick = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pick is None:
            continue
        matrix[r], matrix[pick] = matrix[pick], matrix[r]
        lead = matrix[r][c]
        matrix[r] = [v / lead for v in matrix[r]]
        for i, other in enumerate(matrix):
            if i != r and other[c]:
                factor = other[c]
                matrix[i] = [a - factor * b for a, b in zip(other, matrix[r])]
        pivots[c] = r
    return {c: {k: v for k, v in enumerate(matrix[r]) if v} for c, r in pivots.items()}


scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3,
                                                     max_denominator=5))
nonzero_scalars = scalars.filter(bool)


@st.composite
def sparse_systems(draw):
    """Random sparse rows over a few columns, with duplicate rows, scalar
    multiples and combinations of earlier rows, which reduce to zero."""
    n_cols = draw(st.integers(1, 8))
    entries = st.dictionaries(st.integers(0, n_cols - 1), nonzero_scalars, max_size=n_cols)
    rows = draw(st.lists(entries, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 5))):
        first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(nonzero_scalars), draw(st.sampled_from([0, 1, -2]))
        combined = {c: x * first.get(c, 0) + y * second.get(c, 0)
                    for c in set(first) | set(second)}
        rows.append({c: v for c, v in combined.items() if v})
    return n_cols, rows


@KERNEL
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_rref_matches_dense_gauss_jordan(system, rng):
    n_cols, rows = system
    snapshot = [dict(row) for row in rows]
    pivots = _rref(rows)
    assert rows == snapshot
    assert pivots == dense_rref(n_cols, rows)
    for lead, row in pivots.items():
        assert row[lead] == 1
        assert all(c == lead or c not in pivots for c in row)
        assert all(v and type(v) in (int, Fraction) for v in row.values())
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _rref(iter(shuffled)) == pivots


# dense_rref_mod is the same Gauss-Jordan over GF(p), on a full matrix of
# residues; it shares no code with linalg._rref either.

def dense_rref_mod(n_cols, rows, p):
    matrix = [[row.get(c, 0) % p for c in range(n_cols)] for row in rows]
    pivots = {}
    for c in range(n_cols):
        r = len(pivots)
        pick = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pick is None:
            continue
        matrix[r], matrix[pick] = matrix[pick], matrix[r]
        inverse = pow(matrix[r][c], p - 2, p)
        matrix[r] = [v * inverse % p for v in matrix[r]]
        for i, other in enumerate(matrix):
            if i != r and other[c]:
                factor = other[c]
                matrix[i] = [(a - factor * b) % p for a, b in zip(other, matrix[r])]
        pivots[c] = r
    return {c: {k: v for k, v in enumerate(matrix[r]) if v} for c, r in pivots.items()}


def residues(row, p):
    """A row of rationals whose denominators p does not divide, as the
    nonzero residues mod p that the modular _rref takes."""
    reduced = {c: v.numerator * pow(v.denominator, p - 2, p) % p for c, v in row.items()}
    return {c: v for c, v in reduced.items() if v}


# 7 divides no denominator of sparse_systems (at most 5, and their products)
@KERNEL
@given(sparse_systems(), st.sampled_from([7, PRIME]), st.randoms(use_true_random=False))
def test_modular_rref_matches_dense_gauss_jordan_mod_p(system, p, rng):
    n_cols, rows = system
    rows = [residues(row, p) for row in rows]
    snapshot = [dict(row) for row in rows]
    pivots = _rref(rows, p)
    assert rows == snapshot
    assert pivots == dense_rref_mod(n_cols, rows, p)
    for lead, row in pivots.items():
        assert row[lead] == 1
        assert all(c == lead or c not in pivots for c in row)
        assert all(type(v) is int and 0 < v < p for v in row.values())
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _rref(iter(shuffled), p) == pivots


@KERNEL
@given(st.sampled_from([5, 7, 101, 10_007, PRIME]), st.data())
def test_reconstruction_inverts_reduction_within_the_bound(p, data):
    bound = math.isqrt(p // 2)
    n = data.draw(st.integers(-bound, bound))
    d = data.draw(st.integers(1, bound))
    value = _reconstruct(n * pow(d, p - 2, p) % p, p)
    assert value == Fraction(n, d)
    assert type(value) is (int if Fraction(n, d).denominator == 1 else Fraction)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 10_007])
def test_reconstruction_is_a_nonzero_rational_congruent_to_every_residue(p):
    # in bound or not, the candidate stands for its residue; the re-check of
    # solve_bider, not _reconstruct, decides whether it is the exact entry
    for a in range(1, p):
        value = Fraction(_reconstruct(a, p))
        assert value != 0, a
        assert value.numerator * pow(value.denominator, -1, p) % p == a, a


# -- the template match: one elimination for every target ---------------------------

def sparse(values):
    """The solver's Row form of a dense vector: its nonzero entries."""
    return {k: v for k, v in enumerate(values) if v}


@st.composite
def span_problems(draw):
    """Random columns, some of them combinations of earlier ones, and
    targets among zero vectors, combinations of the columns and random
    vectors (mostly outside the span)."""
    length = draw(st.integers(1, 6))
    vectors = st.lists(scalars, min_size=length, max_size=length)
    columns = draw(st.lists(vectors, max_size=4))

    def combination():
        coeffs = [draw(scalars) for _ in columns]
        return [sum((c * col[i] for c, col in zip(coeffs, columns)), 0)
                for i in range(length)]

    for _ in range(draw(st.integers(0, 2)) if columns else 0):
        columns.append(combination())
    targets = [draw(st.sampled_from([lambda: [0] * length, combination,
                                     lambda: draw(vectors)]))()
               for _ in range(draw(st.integers(1, 6)))]
    return length, columns, targets


@KERNEL
@given(span_problems())
def test_one_elimination_matches_one_per_target(problem):
    length, columns, targets = problem
    rows = [sparse(col) for col in columns]
    results = express_all_in_span(rows, [sparse(t) for t in targets])
    assert results == [express_all_in_span(rows, [sparse(t)])[0] for t in targets]

    # against the dense Gauss-Jordan, which shares no code with _rref
    def dense_pivots(cols):
        return dense_rref(len(cols), [{j: col[i] for j, col in enumerate(cols) if col[i]}
                                      for i in range(length)])

    pivots = dense_pivots(columns)
    for target, coords in zip(targets, results):
        assert (coords is not None) == (len(dense_pivots(columns + [target])) == len(pivots))
        if coords is not None:
            assert all(type(c) in (int, Fraction) for c in coords)
            assert all(coords[j] == 0 for j in range(len(columns)) if j not in pivots)
            assert [sum((c * col[i] for c, col in zip(coords, columns)), 0)
                    for i in range(length)] == list(target)
