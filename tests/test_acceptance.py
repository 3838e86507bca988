"""Acceptance suite.

One test per criterion; each prints a PASS line when its assertions hold.
All polynomial identity checks are exact (zero tolerance).  Randomized
suites run 10^4 cases each, seeded via LCA_SEED (see randgen.py).
"""

import time
from fractions import Fraction

from lcalab import (
    BilinearMap,
    TAGS,
    bracket,
    check_axioms,
    make_catalog,
    make_family,
    match_templates,
    parse_poly,
    residual,
    solve_bider,
    verify_map,
)
from lcalab.poly import B, D, L, M, Poly, Var
from lcalab.solver import express_all_in_span

from lifted import lifted_basis, lifted_vectors
from randgen import make_rng, random_assignment, random_element, random_fraction, random_poly

N_CASES = 10_000

CLW_B_VALUES = (None, -1, 0, 1, 2, Fraction(-3, 2))


def report(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_axiom_suite():
    """check_axioms: Vir; CW m in 1..4; CLW m in 1..3 x b in the sweep set."""
    algebras = [make_catalog("vir")]
    algebras += [make_catalog("cw", m) for m in (1, 2, 3, 4)]
    algebras += [make_catalog("clw", m, b) for m in (1, 2, 3) for b in CLW_B_VALUES]
    start = time.perf_counter()
    for algebra in algebras:
        result = check_axioms(algebra)
        assert result.passed, f"{algebra.name}: {result.failures()[:3]}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    report(1, f"axiom suite over {len(algebras)} algebras, all residuals 0, "
              f"{elapsed:.2f}s")


def test_criterion_2_family_verification():
    """Every family output passes all four identities for all shifts, m <= 3."""
    checked = 0
    for m in (1, 2, 3):
        cw = make_catalog("cw", m)
        clw_sym = make_catalog("clw", m)
        clw_m1 = make_catalog("clw", m, -1)
        maps = [make_family(cw, "inner", t=1), make_family(clw_sym, "inner", t=1)]
        for s in range(m):
            maps.append(make_family(cw, "cw_shift", shift=s, a=1))
            maps.append(make_family(clw_sym, "clw_shift", shift=s, a=1, g=0))
            maps.append(make_family(clw_m1, "clw_shift", shift=s, a=0, g=1))
        for phi in maps:
            result = verify_map(phi, TAGS)
            assert result.passed, f"{phi!r}: {result.failures[:3]}"
            checked += result.checked
    report(2, f"family verification, {checked} residuals, all exactly 0")


def test_criterion_3_negative_control():
    """The g-component injected at b = 0 fails the Leibniz identity."""
    clw = make_catalog("clw", 1, 0)
    lg, gg = clw.gen("L", 0), clw.gen("G", 0)
    raw = BilinearMap(clw, {(lg, lg): clw.element({gg: D + 2 * L})})
    r = residual(raw, "def1b", (lg, lg, lg))
    assert not r.is_zero
    assert r.value == clw.element({gg: L * (D + L + 2 * M)})

    # the same table at symbolic b isolates the (b+1) obstruction factor,
    # and passes at b = -1
    clw_sym = make_catalog("clw", 1)
    raw_sym = BilinearMap(clw_sym, {(lg, lg): clw_sym.element({gg: D + 2 * L})})
    r_sym = residual(raw_sym, "def1b", (lg, lg, lg))
    assert r_sym.value == clw_sym.element({gg: (B + 1) * L * (D + L + 2 * M)})
    clw_m1 = make_catalog("clw", 1, -1)
    raw_m1 = BilinearMap(clw_m1, {(lg, lg): clw_m1.element({gg: D + 2 * L})})
    assert verify_map(raw_m1, ["def1b"]).passed
    report(3, "g-component at b=0 fails def1b with residual (b+1)*l*(d+l+2*m)|b=0")


def test_criterion_4_inner_classification():
    """Vir solutions are exactly the inner family at every degree bound."""
    vir = make_catalog("vir")
    inner = make_family(vir, "inner", t=1)
    start = time.perf_counter()
    for degree in (1, 2, 3):
        space = solve_bider(vir, degree, ["def1a", "def1b"])
        assert space.dimension == 1
        match = match_templates(space)
        assert match.fully_matched
        assert lifted_basis(space)[0] == inner
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"D<=3 classification took {elapsed:.2f}s"
    report(4, f"Vir dimension 1 for D in 1..3, basis = inner map, {elapsed:.2f}s")


def test_criterion_5_loop_classification():
    """CW solutions are the m shift families; CLW gains one dimension at b=-1."""
    for m in (2, 3):
        space = solve_bider(make_catalog("cw", m), 2)
        assert space.dimension == m, f"CW(m={m}) dimension {space.dimension}"
        match = match_templates(space)
        assert match.fully_matched and None not in match.combinations

    dims = {}
    for b in (0, -1):
        clw = make_catalog("clw", 1, b)
        space = solve_bider(clw, 2)
        dims[b] = space.dimension
        assert match_templates(space).fully_matched
        gg = (clw.gen("G", 0), clw.gen("G", 0))
        assert all(phi.entry(*gg).is_zero for phi in lifted_basis(space))
    assert dims[-1] == dims[0] + 1
    report(5, f"CW dims {{2: 2, 3: 3}} fully matched; CLW m=1 dims "
              f"b=0:{dims[0]} b=-1:{dims[-1]}")


def test_criterion_6_leibniz_equivalence():
    """{def1a,def1b} and {def1a,lem1} produce the same solution space."""
    cases = [("vir", 1, None), ("cw", 2, None), ("clw", 1, 0), ("clw", 1, -1)]
    for kind, m, b in cases:
        algebra = make_catalog(kind, m, b)
        s1 = solve_bider(algebra, 2, ["def1a", "def1b"])
        s2 = solve_bider(algebra, 2, ["def1a", "lem1"])
        assert s1.dimension == s2.dimension
        v1, v2 = lifted_vectors(s1), lifted_vectors(s2)
        assert all(express_all_in_span(v2, [v])[0] is not None for v in v1)
        assert all(express_all_in_span(v1, [v])[0] is not None for v in v2)
    report(6, "equal dimensions and mutually expressible bases on 4 algebras")


def test_criterion_7_lem2_consequence():
    """Every solver basis vector has identically zero lem2 residuals."""
    cases = [("vir", 1, None), ("cw", 2, None), ("clw", 1, 0), ("clw", 1, -1)]
    checked = 0
    for kind, m, b in cases:
        space = solve_bider(make_catalog(kind, m, b), 2)
        for phi in lifted_basis(space):
            result = verify_map(phi, ["lem2"])
            assert result.passed
            checked += result.checked
    report(7, f"lem2 zero on all solver bases ({checked} quadruples)")


def test_criterion_8a_ring_axioms():
    rng = make_rng(801)
    for _ in range(N_CASES):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert (p + (-p)).is_zero
    report("8a", f"ring axioms, {N_CASES} random triples")


def test_criterion_8b_substitution_homomorphism():
    rng = make_rng(802)
    skew = {Var.L: -D - L}
    for _ in range(N_CASES):
        p = random_poly(rng)
        q = random_poly(rng)
        assignment = random_assignment(rng)
        assert (p * q).subst(assignment) == p.subst(assignment) * q.subst(assignment)
        assert (p + q).subst(assignment) == p.subst(assignment) + q.subst(assignment)
        assert p.subst(skew).subst(skew) == p
    report("8b", f"substitution homomorphism and double-skew identity, {N_CASES} cases")


def test_criterion_8c_parse_print_roundtrip():
    rng = make_rng(803)
    for _ in range(N_CASES):
        p = random_poly(rng, max_terms=4)
        assert parse_poly(str(p)) == p
    report("8c", f"parse/print round-trip, {N_CASES} random polynomials")


def test_criterion_8d_bracket_linearity_rules():
    rng = make_rng(804)
    algebra = make_catalog("clw", 2, Fraction(-3, 2))
    for _ in range(N_CASES):
        x = random_element(rng, algebra)
        x2 = random_element(rng, algebra)
        y = random_element(rng, algebra)
        alpha = random_fraction(rng)
        assert bracket(alpha * x + x2, y) == alpha * bracket(x, y) + bracket(x2, y)
        assert bracket(y, alpha * x + x2) == alpha * bracket(y, x) + bracket(y, x2)
        assert bracket(x * D, y) == -L * bracket(x, y)
        assert bracket(x, y * D) == (D + L) * bracket(x, y)
    report("8d", f"bracket bilinearity and slot rules, {N_CASES} cases")
