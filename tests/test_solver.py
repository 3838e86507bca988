"""Unit tests for the classification solver."""

import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from lcalab import (
    Algebra,
    Ansatz,
    BilinearMap,
    BracketRule,
    ConstraintSystem,
    InternalCheckError,
    SolutionSpace,
    SolverError,
    algebra_from_dict,
    assemble,
    check_axioms,
    express_in_span,
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
from lcalab.solver import ASSEMBLE_TAGS, MAX_UNKNOWNS, Provenance, _normalize_vector, _rref

from randgen import make_rng, random_fraction, random_poly


# -- ansatz ---------------------------------------------------------------------

def test_unknown_count_formula():
    # (#pairs) * (#generators) * (D+1)(D+2)/2
    assert Ansatz(make_catalog("vir"), 1).n_unknowns == 1 * 1 * 3
    assert Ansatz(make_catalog("cw", 2), 2).n_unknowns == 4 * 2 * 6
    assert Ansatz(make_catalog("clw", 1, 0), 2).n_unknowns == 4 * 2 * 6
    assert Ansatz(make_catalog("cw", 3), 2).n_unknowns == 9 * 3 * 6
    # class 0 is n^2 * (#families) * (D+1)(D+2)/2: one target per family
    assert len(Ansatz(make_catalog("cw", 3), 2).class0) == 9 * 1 * 6
    assert len(Ansatz(make_catalog("clw", 2, 0), 1).class0) == 16 * 2 * 3


def test_ansatz_rejects_symbolic_b():
    with pytest.raises(SolverError, match="numeric b"):
        Ansatz(make_catalog("clw", 1), 1)


def test_ansatz_rejects_negative_degree():
    with pytest.raises(SolverError):
        Ansatz(make_catalog("vir"), -1)


def test_ansatz_size_cap():
    # 40 generators at degree 2: 40^3 * 6 unknowns, refused before any is built
    assert MAX_UNKNOWNS == 50_000
    with pytest.raises(SolverError, match="384000 unknowns .* exceeds the cap of 50000"):
        Ansatz(make_catalog("clw", 20, -1), 2)
    assert Ansatz(make_catalog("clw", 6, -1), 2).n_unknowns == 10_368


def test_vector_map_round_trip():
    rng = make_rng(30)
    ansatz = Ansatz(make_catalog("cw", 2), 1)
    vec = [random_fraction(rng) for _ in range(ansatz.n_unknowns)]
    assert ansatz.vector_of(ansatz.map_from_vector(vec)) == vec


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
    ansatz = Ansatz(make_catalog("vir"), 1)
    system = assemble(ansatz, ["def1a"])
    assert [str(u) for u in ansatz.unknowns] == [
        "u[L:0,L:0->L:0|d^0*l^0]",
        "u[L:0,L:0->L:0|d^1*l^0]",
        "u[L:0,L:0->L:0|d^0*l^1]",
    ]
    assert system.rows == [{0: Fraction(2)}, {1: Fraction(2), 2: Fraction(-1)}]
    assert [str(p) for p in system.provenance] == [
        "def1a (L:0, L:0) coefficient of 1 on L:0",
        "def1a (L:0, L:0) coefficient of d on L:0",
    ]


def test_assemble_degree_zero_constant_killed():
    system = assemble(Ansatz(make_catalog("vir"), 0), ["def1a"])
    assert system.rows == [{0: Fraction(2)}]


def test_assemble_rejects_lem2():
    ansatz = Ansatz(make_catalog("vir"), 1)
    with pytest.raises(SolverError, match="lem2"):
        assemble(ansatz, ["def1a", "lem2"])


def test_assemble_rowcount_regression_cw2():
    # frozen from the oracle run
    system = assemble(Ansatz(make_catalog("cw", 2), 2), ["def1b"])
    assert system.n_rows == 276
    assert str(system.provenance[0]) == \
        "def1b (L:0, L:0, L:0) coefficient of m on L:0"


def test_assembly_matches_residual_engine():
    # The symbolic rows evaluated at a concrete vector must agree with the
    # residual of the reconstructed concrete map, coefficient by coefficient.
    rng = make_rng(31)
    algebra = make_catalog("clw", 1, 0)
    ansatz = Ansatz(algebra, 1)
    system = assemble(ansatz, ["def1a", "def1b", "lem1"])
    for _ in range(5):
        vec = [random_fraction(rng, max_abs=3) for _ in range(ansatz.n_unknowns)]
        phi = ansatz.map_from_vector(vec)
        values = system.evaluate(vec)
        cache = {}
        for value, prov in zip(values, system.provenance):
            key = (prov.tag, prov.args)
            if key not in cache:
                cache[key] = residual(phi, prov.tag, prov.args).value
            poly = cache[key].terms.get(prov.gen, Poly.zero())
            assert poly.terms.get(prov.monomial, Fraction(0)) == value


def per_unknown_assembly(ansatz, tags):
    """Rows rebuilt one unknown at a time: the residual of the map with
    unknown k set to 1 gives column k, at every tuple, for every k."""
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    n = ansatz.n_unknowns
    units = [ansatz.map_from_vector([int(i == k) for i in range(n)]) for k in range(n)]
    rows, provenance = [], []
    for tag in normalize_tags(tags):
        for args in itertools.product(algebra.generators(), repeat=TAG_ARITY[tag]):
            coords = {}
            for k, phi in enumerate(units):
                for gt, poly in residual(phi, tag, args).value.terms.items():
                    for mono, coeff in poly.terms.items():
                        coords.setdefault((gt, mono), {})[k] = coeff
            for gt, mono in sorted(coords, key=lambda c: (sort_key(c[0]), c[1])):
                rows.append(coords[(gt, mono)])
                provenance.append(Provenance(tag, args, gt, mono))
    return rows, provenance


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
    rows, provenance = per_unknown_assembly(ansatz, tags)
    system = assemble(ansatz, tags)
    assert system.rows == rows
    assert [list(row) for row in system.rows] == [list(row) for row in rows]
    assert system.provenance == provenance


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
    assert system.n_rows == len(system.rows) == 21_852
    # only class 0 is eliminated: a third of the rank
    assert len(system.pivots) * 3 == system.n_unknowns - space.dimension == 1_290


def test_rows_regenerate_identically():
    system = assemble(Ansatz(make_catalog("cw", 2), 2))
    rows = system.rows
    assert system.n_rows == len(rows) == 320
    assert system.rows == rows
    assert [list(row) for row in system.rows] == [list(row) for row in rows]
    assert system.provenance == system.provenance


# -- the class-0 solve and its lift against the unlifted solve ------------------------

def unlifted_solve(ansatz, tags):
    """The solve that the lift replaces: every unknown tagged, every index
    class assembled and eliminated together, one vector per free column.
    Returns the rows with their provenance, in (tag, tuple, target,
    monomial) order, and the basis vectors."""
    algebra = ansatz.algebra
    sort_key = algebra.gen_sort_key
    entries = {}
    for k, u in enumerate(ansatz.unknowns):
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
                    listing.append((Provenance(tag, args, gt, mono),
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
            vectors.append(_normalize_vector(vec))
    return listing, vectors


def assert_lift_matches_unlifted_solve(algebra, degree, tags):
    ansatz = Ansatz(algebra, degree)
    listing, vectors = unlifted_solve(ansatz, tags)
    system = assemble(ansatz, tags)
    space = nullspace(system)
    assert space.vectors == vectors
    assert [list(map(type, v)) for v in space.vectors] == \
        [list(map(type, v)) for v in vectors]
    assert system.n_rows == len(listing)
    lifted = system.listing()
    assert lifted == listing
    assert [list(row) for _, row in lifted] == [list(row) for _, row in listing]
    assert [(type(p), type(c)) for _, row in lifted for p, c in row.items()] == \
        [(type(p), type(c)) for _, row in listing for p, c in row.items()]
    assert len(system.pivots) * algebra.modulus == ansatz.n_unknowns - len(vectors)


@pytest.mark.parametrize("algebra, degree, tags", [
    (make_catalog("vir"), 3, ("def1a", "def1b")),
    (make_catalog("cw", 2), 2, ("def1a", "def1b")),
    (make_catalog("cw", 3), 2, ("def1a", "def1b")),
    (make_catalog("cw", 4), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, -1), 2, ("def1a", "def1b")),
    (make_catalog("clw", 3, -1), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, Fraction(3, 2)), 2, ("def1a", "def1b")),
    (make_catalog("clw", 2, -1), 2, ("def1a", "def1b", "lem1")),
    (inhomogeneous_clw(3), 2, ("def1a", "def1b")),
], ids=["vir-d3", "cw2-d2", "cw3-d2", "cw4-d2", "clw2-b-1-d2", "clw3-b-1-d2",
        "clw2-b3/2-d2", "clw2-b-1-lem1-d2", "inhom-clw3-d2"])
def test_lift_matches_unlifted_solve(algebra, degree, tags):
    assert_lift_matches_unlifted_solve(algebra, degree, tags)


def random_loop_table(rng):
    """One or two families, m in {2, 3}, a random target and random d, l
    coefficient per family pair: mostly not a Lie conformal algebra, but
    sigma_s commutes with the bracket of any loop table."""
    families = rng.choice([("L",), ("L", "G")])
    rules = [BracketRule(left, right, rng.choice(families + (None,)),
                         random_poly(rng, max_terms=3, max_exp=1, variables=(Var.D, Var.L)))
             for left in families for right in families]
    return Algebra("Random", rng.choice([2, 3]), families, rules)


@pytest.mark.parametrize("salt", range(40, 48))
def test_lift_matches_unlifted_solve_on_random_loop_tables(salt):
    rng = make_rng(salt)
    algebra = random_loop_table(rng)
    tags = rng.sample(ASSEMBLE_TAGS, k=rng.randint(1, len(ASSEMBLE_TAGS)))
    assert_lift_matches_unlifted_solve(algebra, rng.randint(0, 1), tags)


def test_post_solve_check_covers_the_lift(monkeypatch):
    # a lift that drops one entry (the lowest or highest unknown) of the
    # first vector of each class s in broken; s = 0 is the class-0 vector
    # itself, not lifted.  The one re-check sweep names the lowest broken
    # index in the basis, with the residuals verify_map gives for that
    # vector alone.  In the last case that vector (index 0, its highest
    # unknown dropped) fails only at tuples after the first failures of the
    # other broken vector (index 1).
    algebra = make_catalog("clw", 3, -1)
    expected = solve_bider(algebra, 2)
    lift = Ansatz.lift
    for broken in ({1: min}, {0: min}, {2: max, 0: min}):
        damaged = {}

        def lift_dropping_an_entry(self, entries, s):
            vector = lift(self, entries, s)
            if s in broken and s not in damaged:
                intact = list(vector)
                vector[self.shift(broken[s](entries), s)] = 0
                damaged[s] = (expected.vectors.index(intact), list(vector))
            return vector

        monkeypatch.setattr(Ansatz, "lift", lift_dropping_an_entry)
        with pytest.raises(InternalCheckError) as failure:
            solve_bider(algebra, 2)
        assert damaged.keys() == broken.keys()
        index, vector = min(damaged.values())
        alone = verify_map(Ansatz(algebra, 2).map_from_vector(vector), ("def1a", "def1b"))
        assert str(failure.value) == (
            f"internal check failed: basis vector {index} has nonzero residuals: "
            + "; ".join(str(r) for r in alone.failures[:3]))


# -- nullspace -----------------------------------------------------------------------

def test_nullspace_vir_skew():
    ansatz = Ansatz(make_catalog("vir"), 1)
    space = nullspace(assemble(ansatz, ["def1a"]))
    assert space.dimension == 1
    assert space.vectors == [[Fraction(0), Fraction(1), Fraction(2)]]
    gid = ansatz.algebra.gen("L", 0)
    assert space.basis[0].entry(gid, gid) == ansatz.algebra.element({gid: D + 2 * L})


def test_nullspace_identity_system():
    ansatz = Ansatz(make_catalog("vir"), 0)
    system = ConstraintSystem.from_rows(ansatz, ("def1a",), [{0: Fraction(1)}], [None])
    assert system.n_rows == 1 and system.rows == [{0: Fraction(1)}]
    assert nullspace(system).dimension == 0


def test_explicit_rows_need_m_1():
    # explicit rows carry no index classes to lift
    with pytest.raises(SolverError, match="m = 1"):
        ConstraintSystem.from_rows(Ansatz(make_catalog("cw", 2), 0), ("def1a",), [], [])


def test_nullspace_empty_system():
    ansatz = Ansatz(make_catalog("vir"), 1)
    system = ConstraintSystem.from_rows(ansatz, ("def1a",), [], [])
    assert system.n_rows == 0 and system.rows == []
    space = nullspace(system)
    assert space.dimension == ansatz.n_unknowns
    # free-column basis: one elementary vector per unknown
    for k, vec in enumerate(space.vectors):
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
        normalized = _normalize_vector(vector)
        assert normalized == expected and exact(normalized)
    coords = express_in_span([[2, 0, 4], [0, 3, 3]], [2, 3, 7])
    assert coords == [1, 1] and exact(coords)
    coords = express_in_span([[2, 4], [1, 2]], [1, 2])
    assert coords == [Fraction(1, 2), 0] and exact(coords)
    assert express_in_span([[2, 0]], [0, 1]) is None


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
    ours = sympy.Matrix([[q(v) for v in vec] for vec in space.vectors])
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
        for entry in match.entries:
            used |= {name for name, c in entry.combination.items() if c}
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
        assert system.satisfied_by(vec)
        assert express_in_span(space.vectors, vec) is not None


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
        assert all(express_in_span(s2.vectors, v) is not None for v in s1.vectors)
        assert all(express_in_span(s1.vectors, v) is not None for v in s2.vectors)


def test_determinism_bit_for_bit():
    runs = [solver_report(solve_bider(make_catalog("cw", 2), 2)) for _ in range(2)]
    assert json.dumps(runs[0]) == json.dumps(runs[1])


# -- template matching ----------------------------------------------------------------

def test_family_templates_clw():
    names_b0 = [n for n, _ in family_templates(make_catalog("clw", 2, 0))]
    assert names_b0 == ["clw_a(s=0)", "clw_a(s=1)"]
    names_bm1 = [n for n, _ in family_templates(make_catalog("clw", 2, -1))]
    assert names_bm1 == ["clw_a(s=0)", "clw_a(s=1)", "clw_g(s=0)", "clw_g(s=1)"]


def family_templates_oracle(algebra):
    """The preconditions family_templates kept before it read them off
    make_family: one copy of which families an algebra carries."""
    m = algebra.modulus
    templates = []
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


TEMPLATE_ORACLE_CASES = {
    "vir": lambda: make_catalog("vir"),
    "cw3": lambda: make_catalog("cw", 3),
    "clw2-symbolic": lambda: make_catalog("clw", 2),
    "clw2-b0": lambda: make_catalog("clw", 2, 0),
    "clw2-bm1": lambda: make_catalog("clw", 2, -1),
    "inhomogeneous-clw": lambda: load_algebra(
        Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json"),
    # two families, not (L, G): no template kind applies
    "two-families-not-LG": lambda: algebra_from_dict({
        "name": "XY", "modulus": 2, "families": ["X", "Y"], "b": "-1",
        "rules": [{"left": "X", "right": "X", "target": "X", "coeff": "d + 2*l"}]}),
    # one family whose bracket is zero: it does not close on itself
    "zero-bracket": lambda: algebra_from_dict({
        "name": "Flat", "modulus": 2, "families": ["X"], "b": "symbolic", "rules": []}),
}


@pytest.mark.parametrize("case", sorted(TEMPLATE_ORACLE_CASES))
def test_family_templates_match_precondition_oracle(case):
    algebra = TEMPLATE_ORACLE_CASES[case]()
    expected = family_templates_oracle(algebra)
    assert family_templates(algebra) == expected
    if case in ("two-families-not-LG", "zero-bracket"):
        assert expected == []
    else:
        assert expected


def test_match_reports_unmatched_verbatim():
    # a spurious constant entry cannot be absorbed by the shift templates
    cw = make_catalog("cw", 2)
    ansatz = Ansatz(cw, 1)
    g0, g1 = cw.gen("L", 0), cw.gen("L", 1)
    phi = BilinearMap(cw, {
        (g0, g0): cw.element({g0: D + 2 * L}),
        (g0, g1): cw.element({g0: Poly.one()}),
    })
    vec = ansatz.vector_of(phi)
    space = SolutionSpace(ansatz, 1, [vec], [phi])
    match = match_templates(space)
    assert not match.fully_matched
    report = match.to_json()
    assert report["matched"] == []
    assert report["unmatched"][0]["basis"] == 0
    assert report["unmatched"][0]["map"] == map_to_dict(phi)


def test_solver_report_shape():
    space = solve_bider(make_catalog("cw", 2), 2)
    report = solver_report(space)
    assert report["algebra"] == "CW(m=2)"
    assert report["degree"] == 2
    assert report["tags"] == ["def1a", "def1b"]
    assert report["unknowns"] == 48
    assert report["rows"] == 320
    assert report["dimension"] == 2
    assert len(report["basis"]) == 2
    assert report["unmatched"] == []


# -- bit-identical reports ----------------------------------------------------------
#
# bench/golden.json pins the sha256 of the canonical solver_report of fixed
# solves; any change in rows, basis, normalization or printing moves it.

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text())["reports"]


def canonical_sha256(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, kind, m, b, tags", [
    ("vir-d2", "vir", 1, None, ("def1a", "def1b")),
    ("cw2-d2", "cw", 2, None, ("def1a", "def1b")),
    ("cw4-d2", "cw", 4, None, ("def1a", "def1b")),
    ("clw3-bm1-d2", "clw", 3, -1, ("def1a", "def1b")),
    ("clw2-bm1-all-d2", "clw", 2, -1, ("def1a", "def1b", "lem1")),
])
def test_solver_report_matches_golden_hash(name, kind, m, b, tags):
    space = solve_bider(make_catalog(kind, m, b), 2, tags)
    assert canonical_sha256(solver_report(space, match_templates(space))) == GOLDEN[name]


def test_cli_match_report_matches_golden_hash(tmp_path):
    out = tmp_path / "report.json"
    algebra_file = Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json"
    assert cli.main(["match", "--algebra", str(algebra_file), "--degree", "2",
                     "--format", "json", "--out", str(out)]) == 0
    assert canonical_sha256(json.loads(out.read_text())) == GOLDEN["inhom-cli-d2"]
