"""Unit tests for the classification solver."""

import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import lcalab.solver
from lcalab import (
    Algebra,
    Ansatz,
    BilinearMap,
    BracketRule,
    ConstraintSystem,
    FamilyError,
    InternalCheckError,
    SolutionSpace,
    SolverError,
    algebra_from_dict,
    assemble,
    bracket,
    check_axioms,
    family_templates,
    load_algebra,
    make_catalog,
    make_family,
    map_to_dict,
    match_templates,
    normalize_tags,
    nullspace,
    residual,
    solve_bider,
    solver_report,
    verify_map,
)
from lcalab import cli
from lcalab.bimaps import TAG_ARITY
from lcalab.poly import D, L, Poly, Var
from lcalab.solver import (
    ASSEMBLE_TAGS,
    MAX_UNKNOWNS,
    PRIME,
    _checks,
    _normalize_vector,
    _rref,
    _tuple_rows,
    express_all_in_span,
)

from randgen import make_rng, random_fraction, random_poly

INHOMOGENEOUS = Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json"
SCHRODINGER_VIRASORO = Path(__file__).resolve().parent / "schrodinger_virasoro.json"


def sparse(values):
    """The Row of a dense vector: its nonzero entries, indices ascending."""
    return {k: v for k, v in enumerate(values) if v}


def dense(vector, n):
    """The dense list of a Row over n unknowns, 0 off its support."""
    return [vector.get(k, 0) for k in range(n)]


def class0_listing(ansatz, tags):
    """The exact class-0 rows with their provenance, as ((tag, args,
    target, monomial), row) pairs rebuilt from _tuple_rows: targets in
    gen_sort_key order, monomials sorted and unknowns ascending."""
    sort_key = ansatz.algebra.gen_sort_key
    return [((tag, args, gt, mono), {k: rows[mono][k] for k in sorted(rows[mono])})
            for tag, args, _, by_target in _tuple_rows(ansatz, normalize_tags(tags))
            for gt, rows in sorted(by_target.items(), key=lambda item: sort_key(item[0]))
            for mono in sorted(rows)]


def index_class(ansatz, k):
    """The index class of unknown k, read off its decoded generators:
    target index - left index - right index mod m."""
    u = ansatz.unknown(k)
    return (u.target.index - u.left.index - u.right.index) % ansatz.algebra.modulus


def of_class0(ansatz, listing):
    """The pairs of a listing whose row is in class 0; every row involves
    one index class only."""
    return [(prov, row) for prov, row in listing if index_class(ansatz, min(row)) == 0]


def class0(ansatz):
    """The indices of the class-0 unknowns, ascending, read off their
    decoded generators: target index = left + right index mod m."""
    m = ansatz.algebra.modulus
    return [k for k in range(ansatz.n_unknowns)
            if (u := ansatz.unknown(k)).target.index == (u.left.index + u.right.index) % m]


# -- ansatz ---------------------------------------------------------------------

def test_unknown_count_formula():
    # (#pairs) * (#generators) * (D+1)(D+2)/2
    assert Ansatz(make_catalog("vir"), 1).n_unknowns == 1 * 1 * 3
    assert Ansatz(make_catalog("cw", 2), 2).n_unknowns == 4 * 2 * 6
    assert Ansatz(make_catalog("clw", 1, 0), 2).n_unknowns == 4 * 2 * 6
    assert Ansatz(make_catalog("cw", 3), 2).n_unknowns == 9 * 3 * 6
    # class 0 is n^2 * (#families) * (D+1)(D+2)/2: one target per family
    assert len(class0(Ansatz(make_catalog("cw", 3), 2))) == 9 * 1 * 6
    assert len(class0(Ansatz(make_catalog("clw", 2, 0), 1))) == 16 * 2 * 3
    for algebra in (make_catalog("cw", 3), make_catalog("clw", 2, 0), make_catalog("vir")):
        ansatz = Ansatz(algebra, 2)
        assert list(ansatz._class0()) == class0(ansatz)


def test_unknown_decodes_the_index():
    ansatz = Ansatz(make_catalog("clw", 3, -1), 1)
    position = {g: i for i, g in enumerate(ansatz.algebra.generators())}
    monos = [(0, 0), (1, 0), (0, 1)]
    n = ansatz.n_unknowns
    for k in range(n):
        u = ansatz.unknown(k)
        assert ansatz._encode(position[u.left], position[u.right], position[u.target],
                              monos.index((u.dpow, u.lpow))) == k
    assert str(ansatz.unknown(n - 1)) == "u[G:2,G:2->G:2|d^0*l^1]"
    for k in (-1, n):
        with pytest.raises(SolverError, match=f"unknown index {k} outside 0 .. {n - 1}"):
            ansatz.unknown(k)


def test_ansatz_keeps_no_list_of_the_unknowns():
    # 48,000 unknowns, each decoded from its index on demand; one tuple per
    # unknown and the list of the class-0 ones held 4.7 MB here
    algebra = make_catalog("clw", 10, -1)
    tracemalloc.start()
    try:
        ansatz = Ansatz(algebra, 2)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ansatz.n_unknowns == 48_000
    assert live < 64 * 1024


def test_ansatz_rejects_symbolic_b():
    with pytest.raises(SolverError, match="numeric b"):
        Ansatz(make_catalog("clw", 1), 1)


def test_ansatz_rejects_negative_degree():
    # and a bool, which isinstance takes for an int: True is no degree
    for degree in (-1, True, False):
        with pytest.raises(SolverError, match="degree must be a non-negative integer"):
            Ansatz(make_catalog("vir"), degree)


def test_ansatz_size_cap():
    # 40 generators at degree 2: 40^3 * 6 unknowns, refused before any is built
    assert MAX_UNKNOWNS == 50_000
    with pytest.raises(SolverError, match="384000 unknowns .* exceeds the cap of 50000"):
        Ansatz(make_catalog("clw", 20, -1), 2)
    assert Ansatz(make_catalog("clw", 6, -1), 2).n_unknowns == 10_368


def test_vector_map_round_trip():
    rng = make_rng(30)
    ansatz = Ansatz(make_catalog("cw", 2), 1)
    n = ansatz.n_unknowns
    vec = [random_fraction(rng) for _ in range(n)]
    assert dense(ansatz.vector_of(ansatz.map_from_vector(sparse(vec))), n) == vec


def test_map_from_vector_refuses_indices_outside_the_unknowns():
    ansatz = Ansatz(make_catalog("cw", 2), 1)
    n = ansatz.n_unknowns
    for k in (-1, n):
        with pytest.raises(SolverError, match=f"vector index {k} outside the unknowns"):
            ansatz.map_from_vector({0: Fraction(1), k: Fraction(1)})
    assert ansatz.vector_of(ansatz.map_from_vector({n - 1: Fraction(2)})) == {n - 1: 2}


def test_vector_of_rejects_out_of_space():
    vir = make_catalog("vir")
    ansatz = Ansatz(vir, 0)
    phi = make_family(vir, "inner", t=1)  # degree 1 > bound 0
    with pytest.raises(SolverError, match="exceeds"):
        ansatz.vector_of(phi)


# -- assembly ----------------------------------------------------------------------

def test_assemble_vir_skew_rows():
    # f(d,l) + f(d,-d-l) = 0 for f = c00 + c10 d + c01 l expands to
    # 2 c00 + (2 c10 - c01) d, so exactly two rows survive.
    vir = make_catalog("vir")
    ansatz = Ansatz(vir, 1)
    listing = class0_listing(ansatz, ["def1a"])
    assert [str(ansatz.unknown(k)) for k in range(ansatz.n_unknowns)] == [
        "u[L:0,L:0->L:0|d^0*l^0]",
        "u[L:0,L:0->L:0|d^1*l^0]",
        "u[L:0,L:0->L:0|d^0*l^1]",
    ]
    assert [row for _, row in listing] == [{0: Fraction(2)}, {1: Fraction(2), 2: Fraction(-1)}]
    L0 = vir.gen("L", 0)
    assert [prov for prov, _ in listing] == [
        ("def1a", (L0, L0), L0, (0, 0, 0, 0, 0)),
        ("def1a", (L0, L0), L0, (1, 0, 0, 0, 0)),
    ]
    # m = 1: class 0 is every row
    assert assemble(ansatz, ["def1a"]).rows == [row for _, row in listing]


def test_assemble_degree_zero_constant_killed():
    system = assemble(Ansatz(make_catalog("vir"), 0), ["def1a"])
    assert system.rows == [{0: Fraction(2)}]


def test_assemble_rejects_lem2():
    ansatz = Ansatz(make_catalog("vir"), 1)
    with pytest.raises(SolverError, match="lem2"):
        assemble(ansatz, ["def1a", "lem2"])


def test_assemble_rowcount_regression_cw2():
    # frozen from the oracle run
    cw2 = make_catalog("cw", 2)
    ansatz = Ansatz(cw2, 2)
    assert assemble(ansatz, ["def1b"]).n_rows == 276
    L0 = cw2.gen("L", 0)
    # the coefficient of m on L:0
    assert class0_listing(ansatz, ["def1b"])[0][0] == ("def1b", (L0, L0, L0), L0, (0, 0, 1, 0, 0))


def test_assembly_matches_residual_engine():
    # The symbolic rows evaluated at a concrete vector must agree with the
    # residual of the reconstructed concrete map, coefficient by coefficient.
    rng = make_rng(31)
    algebra = make_catalog("clw", 1, 0)
    ansatz = Ansatz(algebra, 1)
    # m = 1: class 0 is every row
    listing = class0_listing(ansatz, ["def1a", "def1b", "lem1"])
    for _ in range(5):
        vec = [random_fraction(rng, max_abs=3) for _ in range(ansatz.n_unknowns)]
        phi = ansatz.map_from_vector(sparse(vec))
        cache = {}
        for (tag, args, gt, mono), row in listing:
            value = sum((c * vec[k] for k, c in row.items()), Fraction(0))
            if (tag, args) not in cache:
                cache[tag, args] = residual(phi, tag, args).value
            poly = cache[tag, args].terms.get(gt, Poly.zero())
            assert poly.terms.get(mono, Fraction(0)) == value


def per_unknown_assembly(ansatz, tags):
    """Rows rebuilt one unknown at a time, as ((tag, args, target,
    monomial), row) pairs, in that order: the residual of the map with
    unknown k set to 1 gives column k, at every tuple, for every k."""
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    n = ansatz.n_unknowns
    units = [ansatz.map_from_vector(sparse([int(i == k) for i in range(n)])) for k in range(n)]
    listing = []
    for tag in normalize_tags(tags):
        for args in itertools.product(algebra.generators(), repeat=TAG_ARITY[tag]):
            coords = {}
            for k, phi in enumerate(units):
                for gt, poly in residual(phi, tag, args).value.terms.items():
                    for mono, coeff in poly.terms.items():
                        coords.setdefault((gt, mono), {})[k] = coeff
            for gt, mono in sorted(coords, key=lambda c: (sort_key(c[0]), c[1])):
                listing.append(((tag, args, gt, mono), coords[(gt, mono)]))
    return listing


def half_third(m):
    # Vir and a module with [L_l G] = (d + l/2 + 1/3) G: rules with
    # denominators 2 and 3, so the modular rows are scaled by D = 6, which
    # is neither
    algebra = algebra_from_dict({
        "name": f"HalfThird(m={m})", "modulus": m, "families": ["L", "G"], "b": "symbolic",
        "rules": [
            {"left": "L", "right": "L", "target": "L", "coeff": "d + 2*l"},
            {"left": "L", "right": "G", "target": "G", "coeff": "d + 1/2*l + 1/3"},
            {"left": "G", "right": "L", "target": "G", "coeff": "-(1/2*d - 1/2*l + 1/3)"},
        ]})
    assert check_axioms(algebra).passed
    return algebra


def inhomogeneous_clw(m):
    # two families with constant terms in the mixed brackets, so no
    # (d, l)-degree grading: [L_l G] = d+2*l+1 at b = -1
    algebra = algebra_from_dict({
        "name": f"InhomCLW(m={m})", "modulus": m, "families": ["L", "G"], "b": "-1",
        "rules": [
            {"left": "L", "right": "L", "target": "L", "coeff": "d + 2*l"},
            {"left": "L", "right": "G", "target": "G", "coeff": "d + (1-b)*l + 1"},
            {"left": "G", "right": "L", "target": "G", "coeff": "-(b*d + (b-1)*l + 1)"},
        ]})
    assert check_axioms(algebra).passed
    return algebra


@pytest.mark.parametrize("algebra, degree, tags", [
    (make_catalog("vir"), 3, ("def1a", "def1b")),
    (make_catalog("cw", 2), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, Fraction(3, 2)), 0, ("def1a", "def1b")),
    (make_catalog("clw", 2, -1), 0, ("def1a", "def1b", "lem1")),
    (inhomogeneous_clw(2), 0, ("def1a", "def1b")),
], ids=["vir-d3", "cw2-d2", "clw2-b3/2-d0", "clw2-b-1-lem1-d0", "inhom-clw2-d0"])
def test_assemble_matches_per_unknown_oracle(algebra, degree, tags):
    ansatz = Ansatz(algebra, degree)
    expected = of_class0(ansatz, per_unknown_assembly(ansatz, tags))
    listing = class0_listing(ansatz, tags)
    assert listing == expected
    assert [list(row) for _, row in listing] == [list(row) for _, row in expected]


def count_residual_calls(monkeypatch):
    """The tags of the residuals the solver evaluates from now on."""
    calls = []
    real = lcalab.solver.residual

    def counting(phi, tag, args):
        calls.append(tag)
        return real(phi, tag, args)

    monkeypatch.setattr(lcalab.solver, "residual", counting)
    return calls


def test_assembly_evaluates_one_residual_per_template(monkeypatch):
    # one residual per (tag, family tuple), at the index-0 generators of an
    # m = 1 copy, so the count does not grow with m; the coincidence
    # patterns of the phi slots (on one family, def1a has 2 and def1b 5)
    # are merged from it without another evaluation.  The row subset mod p
    # makes the same residuals: a skipped tuple is still counted
    calls = count_residual_calls(monkeypatch)
    n_rows = {}
    for m in (4, 12):
        for p in (PRIME, 0):
            calls.clear()
            n_rows[m] = assemble(Ansatz(make_catalog("cw", m), 2), p=p).n_rows
            assert calls == ["def1a", "def1b"]
    assert n_rows == {4: 5_024, 12: 398_880}
    for m in (2, 3):
        for p in (PRIME, 0):
            calls.clear()
            system = assemble(Ansatz(make_catalog("clw", m, -1), 2), p=p)
            assert calls == ["def1a"] * 4 + ["def1b"] * 8
    assert system.n_rows == 21_852
    calls.clear()
    solve_bider(system.ansatz.algebra, 2)
    assert len(calls) == 12
    # the rows are rebuilt from the same evaluations
    calls.clear()
    assert len(system.rows) == system.n_rows
    assert calls == ["def1a"] * 4 + ["def1b"] * 8
    calls.clear()
    assert 3 * len(class0_listing(system.ansatz, system.tags)) == system.n_rows
    assert calls == ["def1a"] * 4 + ["def1b"] * 8
    ansatz = Ansatz(make_catalog("clw", 2, -1), 0)
    expected = per_unknown_assembly(ansatz, ASSEMBLE_TAGS)
    for p in (0, PRIME):
        # next to def1b no lem1 row is eliminated mod p, but every lem1
        # tuple is still counted, from the same residuals
        calls.clear()
        system = assemble(ansatz, ASSEMBLE_TAGS, p=p)
        assert calls == ["def1a"] * 4 + ["def1b"] * 8 + ["lem1"] * 8
        assert system.n_rows == len(expected)


def test_assembly_holds_only_the_pivots():
    # the rows stream into the elimination; storing every row with its
    # provenance took the peak to about 11 MB here
    tracemalloc.start()
    try:
        space = nullspace(assemble(Ansatz(make_catalog("clw", 3, -1), 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20
    assert space.dimension == 6
    system = space.system
    rows = system.rows
    assert system.n_rows == len(rows) == 21_852
    # the bench's traced distinct_rows counts these
    assert len({frozenset(row.items()) for row in rows}) == 16_452
    cw4 = assemble(Ansatz(make_catalog("cw", 4), 2))
    assert cw4.n_rows == len(cw4.rows) == 5_024
    assert len({frozenset(row.items()) for row in cw4.rows}) == 4_208
    # only class 0 is eliminated: a third of the rank
    assert len(system.pivots) * 3 == system.n_unknowns - space.dimension == 1_290


def test_rows_regenerate_identically():
    system = assemble(Ansatz(make_catalog("cw", 2), 2))
    rows = system.rows
    assert system.n_rows == len(rows) == 320
    assert system.rows == rows
    assert [list(row) for row in system.rows] == [list(row) for row in rows]
    assert class0_listing(system.ansatz, system.tags) == \
        class0_listing(system.ansatz, system.tags)


# -- the class-0 solve and its lift against the unlifted solve ------------------------

def unlifted_solve(ansatz, tags):
    """The solve that the lift replaces: every unknown tagged, every index
    class assembled and eliminated together, one vector per free column.
    Returns the rows of every class as ((tag, tuple, target, monomial),
    row) pairs, in that order, and the basis vectors."""
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    entries = {}
    for k in range(ansatz.n_unknowns):
        u = ansatz.unknown(k)
        entries.setdefault((u.left, u.right), {}).setdefault(u.target, {})[
            (u.dpow, u.lpow, 0, 0, k)] = 1
    tagged = BilinearMap(algebra, {
        pair: algebra.element({gt: Poly(monos) for gt, monos in targets.items()})
        for pair, targets in entries.items()})
    listing = []
    for tag in normalize_tags(tags):
        for args in itertools.product(algebra.generators(), repeat=TAG_ARITY[tag]):
            value = residual(tagged, tag, args).value
            for gt in sorted(value.terms, key=sort_key):
                rows = {}
                for (p, q, r, s, k), coeff in value.terms[gt].terms.items():
                    rows.setdefault((p, q, r, s, 0), {})[k] = coeff
                for mono in sorted(rows):
                    listing.append(((tag, args, gt, mono),
                                    {k: rows[mono][k] for k in sorted(rows[mono])}))
    pivots = _rref(row for _, row in listing)
    n = ansatz.n_unknowns
    vectors = []
    for f in range(n):
        if f not in pivots:
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            for pc, prow in pivots.items():
                if prow.get(f):
                    vec[pc] = -prow[f]
            vectors.append(_normalize_vector(sparse(vec)))
    return listing, vectors


def typed_multiset(rows):
    """The rows as a multiset, with the unknown order and the type of each
    value: Fraction(2) == 2, but not here."""
    return Counter(tuple((k, type(c), c) for k, c in row.items()) for row in rows)


def assert_lift_matches_unlifted_solve(algebra, degree, tags):
    ansatz = Ansatz(algebra, degree)
    listing, vectors = unlifted_solve(ansatz, tags)
    system = assemble(ansatz, tags)
    space = nullspace(system)
    assert space.vectors == vectors
    assert [list(v) for v in space.vectors] == [list(v) for v in vectors]
    assert [list(map(type, v.values())) for v in space.vectors] == \
        [list(map(type, v.values())) for v in vectors]
    assert system.n_rows == len(listing)
    assert all(len({index_class(ansatz, k) for k in row}) == 1 for _, row in listing)
    # the class-0 rows that assembly eliminates
    expected = of_class0(ansatz, listing)
    rows = class0_listing(ansatz, tags)
    assert rows == expected
    assert [list(row) for _, row in rows] == [list(row) for _, row in expected]
    assert [(type(p), type(c)) for _, row in rows for p, c in row.items()] == \
        [(type(p), type(c)) for _, row in expected for p, c in row.items()]
    # the rows of every class, lifted from class 0 by Ansatz.lift
    assert typed_multiset(system.rows) == typed_multiset(row for _, row in listing)
    assert len(system.pivots) * algebra.modulus == ansatz.n_unknowns - len(vectors)


LIFT_CASES = [
    (make_catalog("vir"), 3, ("def1a", "def1b")),
    (make_catalog("cw", 2), 2, ("def1a", "def1b")),
    (make_catalog("cw", 3), 2, ("def1a", "def1b")),
    (make_catalog("cw", 4), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, -1), 2, ("def1a", "def1b")),
    (make_catalog("clw", 3, -1), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, Fraction(3, 2)), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, -1), 2, ("def1a", "def1b", "lem1")),
    (inhomogeneous_clw(3), 2, ("def1a", "def1b")),
    # three families and zero brackets: slots absent from the pattern
    (load_algebra(SCHRODINGER_VIRASORO), 0, ASSEMBLE_TAGS),
    # j, k and 0 all distinct, next to every collapsed pattern
    (make_catalog("cw", 5), 2, ASSEMBLE_TAGS),
    # Fraction rules whose denominators have a least common multiple of 6
    (half_third(3), 2, ASSEMBLE_TAGS),
]
LIFT_CASE_IDS = ["vir-d3", "cw2-d2", "cw3-d2", "cw4-d2", "clw2-b-1-d2", "clw3-b-1-d2",
                 "clw2-b3/2-d2", "clw2-b-1-lem1-d2", "inhom-clw3-d2", "sv-all-d0", "cw5-all-d2",
                 "half-third3-all-d2"]


@pytest.mark.parametrize("algebra, degree, tags", LIFT_CASES, ids=LIFT_CASE_IDS)
def test_lift_matches_unlifted_solve(algebra, degree, tags):
    assert_lift_matches_unlifted_solve(algebra, degree, tags)


def random_loop_table(rng, moduli=(2, 3)):
    """One or two families, m drawn from moduli, a random target and random
    d, l coefficient per family pair: mostly not a Lie conformal algebra,
    but sigma_s commutes with the bracket of any loop table."""
    families = rng.choice([("L",), ("L", "G")])
    rules = []
    for left in families:
        for right in families:
            target = rng.choice(families + (None,))
            coeff = random_poly(rng, max_terms=3, max_exp=1, variables=(Var.D, Var.L))
            # a null target is the zero bracket, whose coefficient is zero
            rules.append(BracketRule(left, right, target, coeff if target else Poly.zero()))
    return Algebra("Random", rng.choice(moduli), families, rules)


# Salts 48-55 draw m = 1, where every index coincides, and m = 4, where an
# index tuple can have j, k and 0 all distinct; degree 0 keeps the
# unlifted solve of two families at m = 4 under a second.
@pytest.mark.parametrize("salt, moduli, max_degree",
                         [(salt, (2, 3), 1) for salt in range(40, 48)]
                         + [(salt, (1, 4), 0) for salt in range(48, 56)],
                         ids=[str(salt) for salt in range(40, 56)])
def test_lift_matches_unlifted_solve_on_random_loop_tables(salt, moduli, max_degree):
    rng = make_rng(salt)
    algebra = random_loop_table(rng, moduli)
    tags = rng.sample(ASSEMBLE_TAGS, k=rng.randint(1, len(ASSEMBLE_TAGS)))
    assert_lift_matches_unlifted_solve(algebra, rng.randint(0, max_degree), tags)


def test_post_solve_check_covers_the_lift(monkeypatch):
    # a lift that drops one entry (the lowest or highest unknown) of the
    # first vector of each class s in broken; s = 0 is the class-0 vector
    # itself, not lifted.  Each broken vector is a non-solution, but the
    # re-check sweeps the intact class-0 vectors and passes, so the lift
    # check names the lowest broken index in the basis.
    algebra = make_catalog("clw", 3, -1)
    expected = solve_bider(algebra, 2)
    lift = Ansatz.lift
    for broken in ({1: min}, {0: min}, {2: max, 0: min}):
        damaged = {}

        def lift_dropping_an_entry(self, entries, s):
            vector = lift(self, entries, s)
            if s in broken and s not in damaged:
                intact = dict(vector)
                del vector[self.shift(broken[s](entries), s)]
                damaged[s] = (expected.vectors.index(intact), dict(vector))
            return vector

        monkeypatch.setattr(Ansatz, "lift", lift_dropping_an_entry)
        with pytest.raises(InternalCheckError) as failure:
            solve_bider(algebra, 2)
        assert damaged.keys() == broken.keys()
        for _, vector in damaged.values():
            phi = Ansatz(algebra, 2).map_from_vector(vector)
            assert not verify_map(phi, ("def1a", "def1b")).passed
        index = min(damaged.values())[0]
        assert str(failure.value) == (
            f"internal check failed: basis vector {index} is not the index shift of a class-0 "
            f"basis vector")


def tagged_sum(maps):
    """The map sum_i b^i maps[i], for b-free maps over one algebra, built
    from the maps' tables instead of from the unknowns: the builder the
    re-check used before Ansatz._map made every tagged map."""
    algebra = maps[0].algebra
    entries = {}
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


@pytest.mark.parametrize("algebra", [
    make_catalog("cw", 4),
    make_catalog("clw", 3, -1),
    inhomogeneous_clw(3),
], ids=["cw4-d2", "clw3-b-1-d2", "inhom-clw3-d2"])
def test_post_solve_check_sweeps_the_tagged_basis_sum(algebra, monkeypatch):
    # the re-check sweeps only the class-0 basis maps, those of space.class0
    # (the lift is checked without residuals): one verify_map
    # of their tagged sum, in basis order, pair for pair in order
    swept = []

    def recording_verify_map(phi, tags):
        swept.append(phi)
        return verify_map(phi, tags)

    monkeypatch.setattr(lcalab.solver, "verify_map", recording_verify_map)
    space = solve_bider(algebra, 2)
    first_class = set(class0(space.ansatz))
    maps = [phi for phi, vector in zip(space.basis, space.vectors)
            if first_class.issuperset(vector)]
    assert len(maps) * algebra.modulus == space.dimension
    assert maps == [space.ansatz.map_from_vector(v) for v in space.class0]
    reference = tagged_sum(maps)
    assert len(swept) == 1
    assert swept[0] == reference
    assert list(swept[0].table) == list(reference.table)


# Lifts that return valid solutions of the wrong class on CLW(m=3): sigma_0
# for every s (each class-0 vector 3 times), sigma_1 for every s != 0 (a
# duplicated lift, class 2 missing) and sigma_{s+1} (the right vectors as a
# set, in the wrong positions).  Each maps (s, m) to the shift it applies
# instead of s.
WRONG_CLASS_LIFTS = {
    "sigma-0": lambda s, m: 0,
    "duplicated": lambda s, m: min(s, 1),
    "permuted": lambda s, m: (s + 1) % m,
}


@pytest.mark.parametrize("case", sorted(WRONG_CLASS_LIFTS))
def test_post_solve_check_refuses_a_lift_onto_the_wrong_class(case, monkeypatch):
    # every reported map is a solution, so no residual sweep can fail: the
    # position-by-position lift check has to catch it, and name the lowest
    # position at which the basis differs from the true lifts
    algebra = make_catalog("clw", 3, -1)
    expected = solve_bider(algebra, 2)
    moved, lift = WRONG_CLASS_LIFTS[case], Ansatz.lift
    monkeypatch.setattr(Ansatz, "lift", lambda self, entries, s: lift(
        self, entries, moved(s, self.algebra.modulus)))
    broken = nullspace(assemble(Ansatz(algebra, 2)))
    assert broken.dimension == expected.dimension == 6
    assert all(verify_map(phi, ("def1a", "def1b")).passed for phi in broken.basis)
    index = next(i for i, (got, want) in enumerate(zip(broken.vectors, expected.vectors))
                 if got != want)
    with pytest.raises(InternalCheckError) as failure:
        solve_bider(algebra, 2)
    assert str(failure.value) == (
        f"internal check failed: basis vector {index} is not the index shift of a class-0 "
        f"basis vector")


def test_post_solve_check_refuses_a_lift_that_scales_values(monkeypatch):
    # twice a lifted vector is still a solution, on the right class and in
    # the right position, so only the value-by-value lift check can refuse
    # it, at the first vector that is not of class 0
    algebra = make_catalog("clw", 3, -1)
    expected = solve_bider(algebra, 2)
    lift = Ansatz.lift
    monkeypatch.setattr(Ansatz, "lift", lambda self, entries, s: {
        k: 2 * value if s else value for k, value in lift(self, entries, s).items()})
    broken = nullspace(assemble(Ansatz(algebra, 2)))
    assert [list(v) for v in broken.vectors] == [list(v) for v in expected.vectors]
    assert all(verify_map(phi, ("def1a", "def1b")).passed for phi in broken.basis)
    index = next(i for i, vector in enumerate(expected.vectors)
                 if index_class(expected.ansatz, max(vector)))
    with pytest.raises(InternalCheckError) as failure:
        solve_bider(algebra, 2)
    assert str(failure.value) == (
        f"internal check failed: basis vector {index} is not the index shift of a class-0 "
        f"basis vector")


# -- nullspace -----------------------------------------------------------------------

def test_nullspace_vir_skew():
    ansatz = Ansatz(make_catalog("vir"), 1)
    space = nullspace(assemble(ansatz, ["def1a"]))
    assert space.dimension == 1
    assert [dense(v, 3) for v in space.vectors] == [[Fraction(0), Fraction(1), Fraction(2)]]
    gid = ansatz.algebra.gen("L", 0)
    assert space.basis[0].entry(gid, gid) == ansatz.algebra.element({gid: D + 2 * L})


def test_nullspace_identity_system():
    ansatz = Ansatz(make_catalog("vir"), 0)
    system = ConstraintSystem(ansatz, ("def1a",), 1, _rref([{0: Fraction(1)}]))
    assert system.n_rows == 1 and system.pivots == {0: {0: Fraction(1)}}
    assert nullspace(system).dimension == 0


def test_nullspace_empty_system():
    ansatz = Ansatz(make_catalog("vir"), 1)
    system = ConstraintSystem(ansatz, ("def1a",), 0, _rref([]))
    assert system.n_rows == 0 and system.pivots == {}
    space = nullspace(system)
    assert space.dimension == ansatz.n_unknowns
    # free-column basis: one elementary vector per unknown
    for k, vec in enumerate(space.vectors):
        vec = dense(vec, ansatz.n_unknowns)
        assert vec[k] == 1 and sum(map(bool, vec)) == 1


def exact(values):
    return all(type(v) in (int, Fraction) for v in values)


def test_int_entries_stay_exact():
    # rows and vector_of columns carry int coefficients, and int / int is
    # a float: every result must stay an int or a Fraction
    for vector, expected in [([0, 4, -6, 10], [0, 2, -3, 5]),
                             ([-4, 6], [2, -3]),
                             ([Fraction(1, 2), 3], [1, 6]),
                             ([0, 0], [0, 0])]:
        normalized = _normalize_vector(sparse(vector))
        assert normalized == sparse(expected) and exact(normalized.values())
    coords = express_all_in_span([sparse([2, 0, 4]), sparse([0, 3, 3])],
                                 [sparse([2, 3, 7])])[0]
    assert coords == [1, 1] and exact(coords)
    coords = express_all_in_span([sparse([2, 4]), sparse([1, 2])], [sparse([1, 2])])[0]
    assert coords == [Fraction(1, 2), 0] and exact(coords)
    assert express_all_in_span([sparse([2, 0])], [sparse([0, 1])])[0] is None


@pytest.mark.parametrize("kind, m, b", [("vir", 1, None), ("cw", 2, None),
                                        ("clw", 1, -1)])
def test_nullspace_matches_sympy(kind, m, b):
    sympy = pytest.importorskip("sympy")
    system = assemble(Ansatz(make_catalog(kind, m, b), 2))
    space = nullspace(system)

    def q(value):
        return sympy.Rational(value.numerator, value.denominator)

    n = system.n_unknowns
    matrix = sympy.Matrix([[q(row.get(k, Fraction(0))) for k in range(n)]
                           for row in system.rows])
    theirs = matrix.nullspace()
    assert len(theirs) == space.dimension
    ours = sympy.Matrix([[q(v) for v in dense(vec, n)] for vec in space.vectors])
    assert (matrix * ours.T).is_zero_matrix
    assert ours.rank() == space.dimension
    assert sympy.Matrix.vstack(ours, *(v.T for v in theirs)).rank() == space.dimension


# -- classification runs ----------------------------------------------------------------

def test_vir_inner_classification():
    vir = make_catalog("vir")
    for degree in (1, 2, 3):
        space = solve_bider(vir, degree)
        assert space.dimension == 1
        assert space.basis[0] == make_family(vir, "inner", t=1)


def test_degree_saturation():
    # dimension stabilizes from D = 1 on; the solver observes this.
    dims_vir = [solve_bider(make_catalog("vir"), d).dimension for d in (1, 2, 3)]
    assert dims_vir == [1, 1, 1]
    dims_cw2 = [solve_bider(make_catalog("cw", 2), d).dimension for d in (1, 2, 3)]
    assert dims_cw2 == [2, 2, 2]


def test_cw_loop_classification():
    for m, expected in ((2, 2), (3, 3)):
        space = solve_bider(make_catalog("cw", m), 2)
        assert space.dimension == expected
        match = match_templates(space)
        assert match.fully_matched
        used = set()
        for combination in match.combinations:
            used |= {name for name, c in combination.items() if c}
        assert used == {f"cw_shift(s={s})" for s in range(m)}


def test_clw_delta_term():
    dim_b0 = solve_bider(make_catalog("clw", 1, 0), 2).dimension
    dim_bm1 = solve_bider(make_catalog("clw", 1, -1), 2).dimension
    assert dim_bm1 == dim_b0 + 1


def test_clw_solutions_kill_gg():
    for b in (0, -1):
        clw = make_catalog("clw", 1, b)
        space = solve_bider(clw, 2)
        gg = (clw.gen("G", 0), clw.gen("G", 0))
        assert all(phi.entry(*gg).is_zero for phi in space.basis)


def test_solution_spans_contain_families():
    cw = make_catalog("cw", 2)
    space = solve_bider(cw, 2)
    system = space.system
    for s in range(2):
        vec = space.ansatz.vector_of(make_family(cw, "cw_shift", shift=s, a=1))
        assert all(sum((c * vec.get(k, 0) for k, c in row.items()), Fraction(0)) == 0
                   for row in system.rows)
        assert express_all_in_span(space.vectors, [vec])[0] is not None


def test_solver_basis_satisfies_all_identities():
    # solved bases pass the solved tags by construction, and the two
    # consequence identities (lem1, lem2) on top
    space = solve_bider(make_catalog("clw", 1, -1), 2)
    for phi in space.basis:
        assert verify_map(phi, ["def1a", "def1b", "lem1", "lem2"]).passed


def test_leibniz_forms_give_same_nullspace():
    for kind, m, b in (("vir", 1, None), ("cw", 2, None),
                       ("clw", 1, 0), ("clw", 1, -1)):
        algebra = make_catalog(kind, m, b)
        s1 = solve_bider(algebra, 2, ["def1a", "def1b"])
        s2 = solve_bider(algebra, 2, ["def1a", "lem1"])
        assert s1.dimension == s2.dimension
        assert all(express_all_in_span(s2.vectors, [v])[0] is not None for v in s1.vectors)
        assert all(express_all_in_span(s1.vectors, [v])[0] is not None for v in s2.vectors)


@pytest.mark.parametrize("kind, m, b", [("cw", 4, None), ("clw", 3, -1),
                                        ("clw", 2, Fraction(3, 2)), ("cw", 12, None)],
                         ids=["cw4", "clw3-b-1", "clw2-b3/2", "cw12"])
def test_basis_vectors_are_canonical_rows(kind, m, b):
    # the classify cases of the benchmark and the largest lifted case
    space = solve_bider(make_catalog(kind, m, b), 2)
    assert space.vectors
    for vector in space.vectors:
        keys, values = list(vector), list(vector.values())
        assert keys == sorted(keys)
        assert all(type(v) is int and v for v in values)
        assert math.gcd(*values) == 1 and values[0] > 0


def test_determinism_bit_for_bit():
    spaces = [solve_bider(make_catalog("cw", 2), 2) for _ in range(2)]
    runs = [solver_report(space, match_templates(space)) for space in spaces]
    assert json.dumps(runs[0]) == json.dumps(runs[1])


# -- template matching ----------------------------------------------------------------

def test_family_templates_clw():
    names_b0 = [n for n, _ in family_templates(make_catalog("clw", 2, 0))]
    assert names_b0 == ["clw_a(s=0)", "clw_a(s=1)"]
    names_bm1 = [n for n, _ in family_templates(make_catalog("clw", 2, -1))]
    assert names_bm1 == ["clw_a(s=0)", "clw_a(s=1)", "clw_g(s=0)", "clw_g(s=1)"]


def family_templates_oracle(algebra):
    """The templates every algebra carries, built without make_family: the
    bracket, read off the bracket kernel, with its target indices moved by
    s for s = 0..m-1; then, on the CLW table at b = -1 only (compared rule
    by rule with the catalog's), the g-component (L_i, L_j) -> (d+2l)
    G_{i+j+s}."""
    m = algebra.modulus
    gens = algebra.generators()
    name = "clw_a" if algebra.families == ("L", "G") else "cw_shift"
    templates = []
    for s in range(m):
        table = {}
        for x, y in itertools.product(gens, repeat=2):
            value = bracket(algebra.gen_element(x), algebra.gen_element(y))
            table[(x, y)] = algebra.element({algebra.gen(gt.family, gt.index + s): c
                                             for gt, c in value.terms.items()})
        templates.append((f"{name}(s={s})", BilinearMap(algebra, table)))
    if algebra.rules() == make_catalog("clw", m, -1).rules():
        ls = [x for x in gens if x.family == "L"]
        for s in range(m):
            templates.append((f"clw_g(s={s})", BilinearMap(algebra, {
                (x, y): algebra.element({algebra.gen("G", x.index + y.index + s): D + 2 * L})
                for x in ls for y in ls})))
    return templates


TEMPLATE_ORACLE_CASES = {
    "vir": lambda: make_catalog("vir"),
    "cw3": lambda: make_catalog("cw", 3),
    "clw2-symbolic": lambda: make_catalog("clw", 2),
    "clw2-b0": lambda: make_catalog("clw", 2, 0),
    "clw2-bm1": lambda: make_catalog("clw", 2, -1),
    # the b = -1 table written b-free, with b left symbolic
    "clw2-bm1-b-free": lambda: algebra_from_dict({
        "name": "CLW-b-free", "modulus": 2, "families": ["L", "G"], "b": "symbolic",
        "rules": [{"left": left, "right": right, "target": target, "coeff": "d + 2*l"}
                  for left, right, target in (("L", "L", "L"), ("L", "G", "G"),
                                              ("G", "L", "G"))]}),
    # b = -1, but [L_l G] has a constant term: no g-component
    "inhomogeneous-clw": lambda: load_algebra(INHOMOGENEOUS),
    "two-families-not-LG": lambda: algebra_from_dict({
        "name": "XY", "modulus": 2, "families": ["X", "Y"], "b": "-1",
        "rules": [{"left": "X", "right": "X", "target": "X", "coeff": "d + 2*l"}]}),
    # the bracket is zero, and so is every template
    "zero-bracket": lambda: algebra_from_dict({
        "name": "Flat", "modulus": 2, "families": ["X"], "b": "symbolic", "rules": []}),
    "schrodinger-virasoro": lambda: load_algebra(SCHRODINGER_VIRASORO),
}


@pytest.mark.parametrize("case", sorted(TEMPLATE_ORACLE_CASES))
def test_family_templates_match_precondition_oracle(case):
    algebra = TEMPLATE_ORACLE_CASES[case]()
    expected = family_templates_oracle(algebra)
    templates = family_templates(algebra)
    assert templates == expected
    g_component = case in ("clw2-bm1", "clw2-bm1-b-free")
    assert any(name.startswith("clw_g") for name, _ in templates) == g_component
    for name, phi in templates:
        assert verify_map(phi, ("def1a", "def1b")).passed, name


def match_oracle(space):
    """The match before it moved to class 0: every template of every shift
    that fits the ansatz as a column, every basis vector as a target, in
    one elimination."""
    ansatz = space.ansatz
    names, columns = [], []
    for name, phi in family_templates(ansatz.algebra):
        try:
            columns.append(ansatz.vector_of(phi))
        except SolverError:
            continue
        names.append(name)
    return [None if coords is None else dict(zip(names, coords))
            for coords in express_all_in_span(columns, space.vectors)]


def assert_match_is_oracle(space):
    combinations = match_templates(space).combinations
    expected = match_oracle(space)
    assert combinations == expected
    assert [c if c is None else list(c) for c in combinations] == \
        [c if c is None else list(c) for c in expected]


# Every template oracle case but the one whose table keeps b, which no
# ansatz accepts.
SOLVABLE_TEMPLATE_CASES = sorted(set(TEMPLATE_ORACLE_CASES) - {"clw2-symbolic"})


@pytest.mark.parametrize("case", SOLVABLE_TEMPLATE_CASES)
def test_match_equals_every_shift_oracle(case):
    assert_match_is_oracle(solve_bider(TEMPLATE_ORACLE_CASES[case](), 2))


@pytest.mark.parametrize("algebra, degree, tags", LIFT_CASES, ids=LIFT_CASE_IDS)
def test_match_equals_every_shift_oracle_on_the_lift_cases(algebra, degree, tags):
    assert_match_is_oracle(solve_bider(algebra, degree, tags))


@pytest.mark.parametrize("case", SOLVABLE_TEMPLATE_CASES)
def test_shifted_templates_are_lifts_of_the_shift_zero_template(case):
    # the premise of the class-0 match, on every shift of every kind
    algebra = TEMPLATE_ORACLE_CASES[case]()
    ansatz = Ansatz(algebra, 1)
    for kind, arguments in (("cw_shift", {}), ("clw_shift", {"a": 0, "g": 1})):
        try:
            base = ansatz.vector_of(make_family(algebra, kind, **arguments))
        except FamilyError:
            continue
        for s in range(algebra.modulus):
            shifted = ansatz.vector_of(make_family(algebra, kind, shift=s, **arguments))
            assert shifted == ansatz.lift(base, s), (kind, s)
            assert list(shifted) == list(ansatz.lift(base, s)), (kind, s)


def test_match_reports_unmatched_verbatim():
    # a spurious constant entry of class 0, (L:0, L:1) -> 1*L:1, cannot be
    # absorbed by the shift templates, nor can its lift by sigma_1
    cw = make_catalog("cw", 2)
    ansatz = Ansatz(cw, 1)
    g0, g1 = cw.gen("L", 0), cw.gen("L", 1)
    phi = BilinearMap(cw, {
        (g0, g0): cw.element({g0: D + 2 * L}),
        (g0, g1): cw.element({g1: Poly.one()}),
    })
    lifted = BilinearMap(cw, {
        (g0, g0): cw.element({g1: D + 2 * L}),
        (g0, g1): cw.element({g0: Poly.one()}),
    })
    space = SolutionSpace(assemble(ansatz), [ansatz.vector_of(phi)])
    # sigma_1 moves the highest unknown, on (L:0, L:1), to a lower target
    assert space.lifts == [(0, 1), (0, 0)]
    match = match_templates(space)
    assert match.combinations == [None, None]
    report = solver_report(space, match)
    assert report["matched"] == []
    assert report["unmatched"] == [{"basis": 0, "map": map_to_dict(lifted)},
                                   {"basis": 1, "map": map_to_dict(phi)}]
    assert report["basis"] == [entry["map"] for entry in report["unmatched"]]


def test_solver_report_shape():
    space = solve_bider(make_catalog("cw", 2), 2)
    report = solver_report(space, match_templates(space))
    assert report["algebra"] == "CW(m=2)"
    assert report["degree"] == 2
    assert report["tags"] == ["def1a", "def1b"]
    assert report["unknowns"] == 48
    assert report["rows"] == 320
    assert report["dimension"] == 2
    assert len(report["basis"]) == 2
    assert report["unmatched"] == []


def assert_report_is_map_to_dict(space):
    # the report serializes each class-0 map once and derives its lifts by
    # renaming targets
    report = solver_report(space, match_templates(space))
    expected = [map_to_dict(space.ansatz.map_from_vector(v)) for v in space.vectors]
    assert report["basis"] == expected
    assert json.dumps(report["basis"], indent=2) == json.dumps(expected, indent=2)
    assert [entry["map"] for entry in report["unmatched"]] == \
        [expected[entry["basis"]] for entry in report["unmatched"]]


@pytest.mark.parametrize("algebra, degree, tags", LIFT_CASES, ids=LIFT_CASE_IDS)
def test_report_basis_is_map_to_dict_on_the_lift_cases(algebra, degree, tags):
    assert_report_is_map_to_dict(solve_bider(algebra, degree, tags))


@pytest.mark.parametrize("kind, m, b", [("cw", 12, None), ("clw", 6, -1)],
                         ids=["cw12-d2", "clw6-bm1-d2"])
def test_report_basis_is_map_to_dict_on_the_large_lifted_cases(kind, m, b):
    assert_report_is_map_to_dict(solve_bider(make_catalog(kind, m, b), 2))


# Solves of def1a alone, whose bases hold vectors outside the span of the
# templates: the Virasoro one has 1 matched and 1 unmatched vector, the
# CW(m=3) one 36 unmatched vectors, 12 class-0 vectors lifted by sigma_s.
UNMATCHED_SOLVES = {
    "vir-d2": (lambda: make_catalog("vir"), 2, 1, 1),
    "cw3-d1": (lambda: make_catalog("cw", 3), 1, 0, 36),
}


@pytest.mark.parametrize("case", sorted(UNMATCHED_SOLVES))
def test_match_and_report_are_the_oracles_on_unmatched_solves(case):
    make, degree, n_matched, n_unmatched = UNMATCHED_SOLVES[case]
    space = solve_bider(make(), degree, ("def1a",))
    report = solver_report(space, match_templates(space))
    assert (len(report["matched"]), len(report["unmatched"])) == (n_matched, n_unmatched)
    assert_match_is_oracle(space)
    assert_report_is_map_to_dict(space)


# -- bit-identical reports ----------------------------------------------------------
#
# bench/golden.json pins the sha256 of the canonical solver_report of fixed
# solves; any change in rows, basis, normalization or printing moves it.

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text())["reports"]


def canonical_sha256(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_SOLVES = [
    ("vir-d2", "vir", 1, None, ("def1a", "def1b")),
    ("cw2-d2", "cw", 2, None, ("def1a", "def1b")),
    ("cw4-d2", "cw", 4, None, ("def1a", "def1b")),
    ("clw3-bm1-d2", "clw", 3, -1, ("def1a", "def1b")),
    ("clw2-bm1-all-d2", "clw", 2, -1, ("def1a", "def1b", "lem1")),
]


@pytest.mark.parametrize("name, kind, m, b, tags", GOLDEN_SOLVES)
def test_solver_report_matches_golden_hash(name, kind, m, b, tags):
    space = solve_bider(make_catalog(kind, m, b), 2, tags)
    assert canonical_sha256(solver_report(space, match_templates(space))) == GOLDEN[name]


# The two largest lifted cases, pinned before the post-solve work moved to
# class 0: twelve basis vectors each, lifted from one class-0 vector (CW)
# and from two, with the g-component template (CLW).
@pytest.mark.parametrize("kind, m, b, digest", [
    ("cw", 12, None, "aedcc0849ca0306db86941b2c3cceb576d3e02643286c89c34586cd9045eee19"),
    ("clw", 6, -1, "d9c27cda47a2547dd37e323323ebc8e316fab50f0c095c2ff7e90b9a73d37f3b"),
], ids=["cw12-d2", "clw6-bm1-d2"])
def test_large_lifted_report_matches_golden_hash(kind, m, b, digest):
    space = solve_bider(make_catalog(kind, m, b), 2)
    assert canonical_sha256(solver_report(space, match_templates(space))) == digest


def test_match_and_report_read_only_the_class0_basis(monkeypatch):
    # the lifted vectors are not built after the solve: the match and the
    # report derive every basis vector from class0 and lifts
    space = solve_bider(make_catalog("clw", 3, -1), 2)

    def unread(self):
        raise AssertionError("SolutionSpace.vectors was read")

    monkeypatch.setattr(SolutionSpace, "vectors", property(unread))
    assert report_sha256(space) == GOLDEN["clw3-bm1-d2"]


def test_cli_match_report_matches_golden_hash(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["match", "--algebra", str(INHOMOGENEOUS), "--degree", "2",
                     "--format", "json", "--out", str(out)]) == 0
    assert canonical_sha256(json.loads(out.read_text())) == GOLDEN["inhom-cli-d2"]


# -- the modular solve and its exact retry -------------------------------------------

def record_assemble(monkeypatch):
    """The arguments past (ansatz, tags) of every assemble call from now on."""
    calls = []
    real = lcalab.solver.assemble

    def recording(ansatz, tags, *rest, **options):
        calls.append((rest, options))
        return real(ansatz, tags, *rest, **options)

    monkeypatch.setattr(lcalab.solver, "assemble", recording)
    return calls


def report_sha256(space):
    return canonical_sha256(solver_report(space, match_templates(space)))


def fast_path(p=PRIME):
    """The assemble calls of a solve without a retry: one assembly mod p,
    of the row subset."""
    return [((), {"p": p})]


def retry(p=PRIME):
    """The assemble calls of a solve that retries: the fast path, then one
    complete exact assembly, assemble's default."""
    return fast_path(p) + [((), {})]


@pytest.mark.parametrize("algebra, degree, tags", LIFT_CASES, ids=LIFT_CASE_IDS)
def test_lift_cases_take_the_modular_path_without_a_retry(algebra, degree, tags, monkeypatch):
    # a bug in the modular kernel must not hide behind a silent exact retry
    calls = record_assemble(monkeypatch)
    space = solve_bider(algebra, degree, tags)
    assert calls == fast_path()
    assert space.system.p == PRIME


def test_golden_solves_take_the_modular_path_without_a_retry(monkeypatch, tmp_path):
    calls = record_assemble(monkeypatch)
    for name, kind, m, b, tags in GOLDEN_SOLVES:
        calls.clear()
        space = solve_bider(make_catalog(kind, m, b), 2, tags)
        assert calls == fast_path(), name
        assert space.system.p == PRIME
        assert report_sha256(space) == GOLDEN[name]
    calls.clear()
    out = tmp_path / "report.json"
    assert cli.main(["match", "--algebra", str(INHOMOGENEOUS), "--degree", "2",
                     "--format", "json", "--out", str(out)]) == 0
    assert calls == fast_path()
    assert canonical_sha256(json.loads(out.read_text())) == GOLDEN["inhom-cli-d2"]


# Small primes at which the modular solve is refused or stands, p -> whether
# solve_bider retries; b = 1/3 and -7/3 bring Fraction coefficients, with a
# denominator D divisible by 3: mod 3 the def1b rows, scaled by D, lose every
# term whose coefficient is an integer before the scaling.
RETRY_CASES = {
    "cw4": (lambda: make_catalog("cw", 4), {2: True, 3: True, 5: False, 7: False}),
    "clw3-b-1": (lambda: make_catalog("clw", 3, -1), {2: True, 3: True, 5: False, 7: False}),
    "clw2-b1/3": (lambda: make_catalog("clw", 2, Fraction(1, 3)),
                  dict.fromkeys((2, 3, 5, 7), True)),
    "clw2-b-7/3": (lambda: make_catalog("clw", 2, Fraction(-7, 3)),
                   dict.fromkeys((2, 3, 5, 7), True)),
}


@pytest.mark.parametrize("case", sorted(RETRY_CASES))
def test_unlucky_primes_retry_in_exact_arithmetic(case, monkeypatch):
    # the re-check alone decides: a refused solve retries exactly, and one
    # that stands keeps its modular system; the report is the same either way
    make, retries = RETRY_CASES[case]
    algebra = make()
    expected = report_sha256(solve_bider(algebra, 2))
    calls = record_assemble(monkeypatch)
    for p, retried in retries.items():
        monkeypatch.setattr(lcalab.solver, "PRIME", p)
        calls.clear()
        space = solve_bider(algebra, 2)
        assert calls == (retry(p) if retried else fast_path(p)), p
        assert space.system.p == (0 if retried else p), p
        assert report_sha256(space) == expected, p


def test_each_retry_cause_is_reached():
    # the one cause of a retry: the re-check refuses the row subset mod p
    # while the lift check passes.  Mod 3, which divides D = 3 of b = 1/3,
    # the scale of the def1b rows; mod 3 on CW(m=4), whose entries are
    # rebuilt to wrong rationals; and mod 2, where the rank drops below the
    # rank over Q, 190 against 191, so one more vector per class
    clw, cw4 = Ansatz(make_catalog("clw", 2, Fraction(1, 3)), 2), Ansatz(make_catalog("cw", 4), 2)
    assert len(assemble(clw).pivots) == 191
    for ansatz, p in ((clw, 3), (cw4, 3), (clw, 2)):
        space = nullspace(assemble(ansatz, p=p))
        report, mismatch = _checks(space)
        assert not report.passed and mismatch is None, p
    assert len(space.system.pivots) == 190 and space.dimension == 4
    # mod 5 some entries of CW(m=4) lie outside the reconstruction bound,
    # yet every candidate is the exact entry: the solve stands
    space = nullspace(assemble(cw4, p=5))
    assert len(space.system.pivots) == len(assemble(cw4).pivots) == 95
    assert space.class0 == nullspace(assemble(cw4)).class0
    report, mismatch = _checks(space)
    assert report.passed and mismatch is None


def test_prime_dividing_the_denominator_retries_to_the_exact_report(monkeypatch):
    # b = 1/PRIME: PRIME divides D, the scale of the def1b rows, so mod
    # PRIME they lose every term with an integer coefficient before the
    # scaling, and the re-check refuses the modular solve
    algebra = make_catalog("clw", 2, Fraction(1, PRIME))
    exact = nullspace(assemble(Ansatz(algebra, 2)))
    calls = record_assemble(monkeypatch)
    space = solve_bider(algebra, 2)
    assert calls == retry()
    assert space.system.p == 0
    assert solver_report(space, match_templates(space)) == \
        solver_report(exact, match_templates(exact))


# Solves whose class0[j] is broken: (algebra, j, the error).  CW(m=12) has
# one class-0 vector, whose first lift, basis vector 0, is sigma_2 of it;
# CLW(m=3, b=-1) lifts class0[1] first to basis vector 3, so the error names
# a lift, not a class-0 position.
BOTH_SOLVES_FAIL = {
    "cw12": (lambda: make_catalog("cw", 12), 0,
             "internal check failed: basis vector 0 has nonzero residuals: "
             "def1a (L:11, L:11): (-d)*L:0; def1b (L:11, L:0, L:11): (l*l)*L:0; "
             "def1b (L:11, L:1, L:10): (d*l + l*l + 2*l*m)*L:0"),
    "clw3-b-1": (lambda: make_catalog("clw", 3, -1), 1,
                 "internal check failed: basis vector 3 has nonzero residuals: "
                 "def1a (L:2, G:2): (-d - l)*G:0; def1a (G:2, L:2): (l)*G:0; "
                 "def1b (G:2, L:0, L:2): (l*l)*G:0"),
}


@pytest.mark.parametrize("case", sorted(BOTH_SOLVES_FAIL))
def test_recheck_failing_on_both_solves_names_the_first_failing_lift(case, monkeypatch):
    # a nullspace that adds 1 to the highest entry of class0[j] breaks both
    # the modular solve and its exact retry.  The lift check passes, so the
    # error is read off the re-check's b-exponents: the first basis vector
    # lifted from class0[j], with the failures of that vector alone
    make, j, message = BOTH_SOLVES_FAIL[case]
    real = lcalab.solver.nullspace

    def nullspace_breaking_a_vector(system):
        space = real(system)
        vector = space.class0[j]
        vector[max(vector)] += 1
        return space

    monkeypatch.setattr(lcalab.solver, "nullspace", nullspace_breaking_a_vector)
    calls = record_assemble(monkeypatch)
    with pytest.raises(InternalCheckError) as failure:
        solve_bider(make(), 2)
    assert calls == retry()
    assert str(failure.value) == message


def test_modular_solve_reconstructs_the_exact_basis():
    # the row subset mod PRIME gives the same vectors, value and type, as
    # the exact solve of every row
    for algebra in (make_catalog("clw", 2, Fraction(1, 3)), make_catalog("cw", 4),
                    inhomogeneous_clw(3)):
        ansatz = Ansatz(algebra, 2)
        modular, exact = nullspace(assemble(ansatz, p=PRIME)), nullspace(assemble(ansatz))
        assert modular.system.p == PRIME and exact.system.p == 0
        assert modular.vectors == exact.vectors
        assert [[(k, type(v)) for k, v in vector.items()] for vector in modular.vectors] == \
            [[(k, type(v)) for k, v in vector.items()] for vector in exact.vectors]
        assert modular.system.n_rows == exact.system.n_rows
        assert modular.system.pivots.keys() == exact.system.pivots.keys()


# -- the row subset that solve_bider eliminates ----------------------------------------

SUBSET_CASES = {
    "cw4-d2": (lambda: make_catalog("cw", 4), 2),
    "cw5-d3": (lambda: make_catalog("cw", 5), 3),
    "clw2-b1/3-d2": (lambda: make_catalog("clw", 2, Fraction(1, 3)), 2),
    "clw2-b-7/3-d2": (lambda: make_catalog("clw", 2, Fraction(-7, 3)), 2),
    "clw6-b-1-d2": (lambda: make_catalog("clw", 6, -1), 2),
    "inhom-clw-d2": (lambda: load_algebra(INHOMOGENEOUS), 2),
    "sv-d2": (lambda: load_algebra(SCHRODINGER_VIRASORO), 2),
}


@pytest.mark.parametrize("case", sorted(SUBSET_CASES))
def test_row_subset_has_the_full_rank_and_basis(case):
    # the row subset mod PRIME against every row in exact arithmetic
    make, degree = SUBSET_CASES[case]
    ansatz = Ansatz(make(), degree)
    for tags in (("def1a", "def1b"), ASSEMBLE_TAGS, ("def1a", "lem1")):
        full = assemble(ansatz, tags)
        subset = assemble(ansatz, tags, p=PRIME)
        assert subset.n_rows == full.n_rows, tags
        assert subset.pivots.keys() == full.pivots.keys(), tags
        assert nullspace(subset).vectors == nullspace(full).vectors, tags


def test_row_subset_leaves_out_lem1_next_to_def1b():
    # every lem1 tuple is still counted, but only lem1 on its own (with
    # def1a) eliminates rows, those of the tuples whose y has index 0
    ansatz = Ansatz(make_catalog("clw", 2, -1), 2)
    for tags in (ASSEMBLE_TAGS, ("def1a", "lem1")):
        full = assemble(ansatz, tags)
        kept, counted = set(), 0
        for tag, args, size, by_target in _tuple_rows(ansatz, tags, PRIME):
            counted += size
            if tag == "lem1" and by_target:
                kept.add(args)
        assert 2 * counted == full.n_rows
        if "def1b" in tags:
            assert not kept
        else:
            assert kept == {args for args in itertools.product(ansatz.algebra.generators(),
                                                               repeat=3) if args[1].index == 0}


@pytest.mark.parametrize("algebra", [
    half_third(2), make_catalog("clw", 2, Fraction(-7, 4)), inhomogeneous_clw(2),
    make_catalog("cw", 4),
], ids=["half-third2-D6", "clw2-b-7/4-D4", "inhom-clw2", "cw4"])
def test_modular_rows_are_the_exact_rows_scaled_and_reduced(algebra):
    # mod p a kept tuple gets its exact rows times D (def1b, lem1: one
    # bracket per term of the integer copy) or 1 (def1a), reduced, with the
    # entries that vanish mod p dropped; a skipped tuple gets no rows, and
    # every tuple the exact row count.  Some keys are met first, or only, at
    # skipped tuples (def1b with [y z] = z != y): their row count is taken
    # there, and their rows when a kept tuple meets them
    scale = math.lcm(*(c.denominator for rule in algebra.rules()
                       for c in rule.coeff.terms.values()))
    ansatz = Ansatz(algebra, 2)
    for tags in (("def1a", "def1b"), ASSEMBLE_TAGS, ("def1a", "lem1")):
        exact = list(_tuple_rows(ansatz, tags))
        for p in (PRIME, 2, 3, 5):
            modular = list(_tuple_rows(ansatz, tags, p))
            assert [t[:3] for t in modular] == [t[:3] for t in exact]
            for (tag, args, _, expected), (*_, by_target) in zip(exact, modular):
                kept = (tag == "def1a" or tag == "def1b" and args[2].index == 0
                        or tag == "lem1" and "def1b" not in tags and args[1].index == 0)
                if not kept:
                    assert by_target == {}, (tag, args)
                    continue
                s = 1 if tag == "def1a" else scale
                assert all((v * s).denominator == 1 for rows in expected.values()
                           for row in rows.values() for v in row.values())
                assert by_target == {
                    gt: {mono: {k: int(v * s) % p for k, v in row.items() if v * s % p}
                         for mono, row in rows.items()}
                    for gt, rows in expected.items()}, (tag, args, p)
                assert all(type(v) is int for rows in by_target.values()
                           for row in rows.values() for v in row.values())


def test_short_row_subset_falls_back_to_one_complete_exact_solve(monkeypatch):
    # lem1 restricted on z instead of y leaves the def1a + lem1 subset of
    # CW(m=4) short, rank 71 against 95: the re-check fails, the lift check
    # passes, and the one retry solves the complete system exactly
    cw4, tags = make_catalog("cw", 4), ("def1a", "lem1")
    expected = report_sha256(solve_bider(cw4, 2, tags))
    ansatz = Ansatz(cw4, 2)
    assert len(assemble(ansatz, tags, p=PRIME).pivots) == 95
    monkeypatch.setitem(lcalab.solver.SUBSET_ARGS, "lem1", 2)
    assert len(assemble(ansatz, tags, p=PRIME).pivots) == 71
    calls = record_assemble(monkeypatch)
    space = solve_bider(cw4, 2, tags)
    assert calls == retry()
    assert space.system.p == 0
    assert report_sha256(space) == expected
