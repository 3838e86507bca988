"""Unit tests for bracket tables, evaluation, axiom checks and files."""

import gc
import itertools
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from lcalab import (
    Algebra,
    AlgebraError,
    BracketRule,
    GeneratorId,
    algebra_from_dict,
    algebra_to_dict,
    bracket,
    check_axioms,
    load_algebra,
    make_catalog,
    parse_poly,
    second_slot_subst,
)
from lcalab.algebra import MAX_SWEEP_RESIDUALS, MAX_TABLE_ENTRIES
from lcalab.poly import B, D, L, M, Poly, Var

from randgen import make_rng, random_element, random_fraction


def mono(d=0, l=0, m=0, g=0, b=0):
    return (d, l, m, g, b)


# -- catalog ------------------------------------------------------------------

def test_table_size_cap():
    # (2 families * 100)^2 pairs sit exactly at the cap; one residue more is refused.
    assert len(make_catalog("clw", 100).table) == MAX_TABLE_ENTRIES == 40_000
    with pytest.raises(AlgebraError, match="exceeds the cap of 40000"):
        make_catalog("clw", 101)


def test_algebra_is_freed_without_the_cyclic_collector():
    # The table, the renamed tables and the coefficient memos refer to no
    # Element, so a swept algebra holds no reference cycle.
    gc.disable()
    try:
        clw = make_catalog("clw", 2)
        assert check_axioms(clw).passed
        assert bracket(clw.gen_element(("L", 0)) * D, clw.gen_element(("G", 1)), L + M)
        alive = weakref.ref(clw)
        del clw
        assert alive() is None
    finally:
        gc.enable()


def test_axiom_check_budget():
    # clw m=50 has 100 generators: 100^2 + 100^3 residuals, just over the cap
    assert MAX_SWEEP_RESIDUALS == 1_000_000
    with pytest.raises(AlgebraError, match="1010000 residuals .* exceeds the cap"):
        check_axioms(make_catalog("clw", 50))


def test_vir_catalog():
    vir = make_catalog("vir")
    assert vir.families == ("L",)
    assert vir.modulus == 1
    assert vir.rule("L", "L").coeff == parse_poly("d + 2*l")
    assert vir.rule("L", "L").target == "L"


def test_clw_catalog_symbolic():
    clw = make_catalog("clw", 3)
    assert clw.families == ("L", "G")
    assert clw.rule("G", "G").target is None
    assert clw.rule("L", "G").coeff == D + L - B * L
    assert clw.rule("G", "L").coeff == -(B * D + (B - 1) * L)
    assert clw.b_value is None


def test_clw_catalog_numeric_b():
    clw = make_catalog("clw", 2, -1)
    # d + (1-b)l at b = -1
    assert clw.rule("L", "G").coeff == D + 2 * L
    assert clw.b_value == Fraction(-1)
    # no b left anywhere after substitution
    for rule in clw.rules():
        assert Var.B not in rule.coeff.variables()


def test_cw_equals_vir_bracket_at_m1():
    cw = make_catalog("cw", 1)
    vir = make_catalog("vir")
    assert cw.rule("L", "L").coeff == vir.rule("L", "L").coeff


def test_catalog_rejects_bad_parameters():
    with pytest.raises(AlgebraError):
        make_catalog("vir", 2)
    with pytest.raises(AlgebraError):
        make_catalog("cw", 2, b=1)
    with pytest.raises(AlgebraError):
        make_catalog("vir", 1, b=1)
    with pytest.raises(AlgebraError):
        make_catalog("clw", 0)
    with pytest.raises(AlgebraError):
        make_catalog("w_infinity")


# A float would enter as a binary rational (0.1 is 3602879701896397/2**55):
# only ints and Fractions are scalars.
NOT_SCALARS = (0.5, 0.1, -1.0, True, False, "1/2", "-1")


def test_b_accepts_exact_scalars():
    for b in (-1, 3, Fraction(1, 2), Fraction(-4, 2)):
        clw = make_catalog("clw", 2, b)
        assert clw.b_value == Fraction(b)
        assert clw.name == f"CLW(m=2, b={Fraction(b)})"
        rules = [BracketRule("L", "L", "L", D + 2 * L + B)]
        assert Algebra("X", 1, ["L"], rules, b=b).b_value == Fraction(b)
    assert make_catalog("clw", 2, 3) == make_catalog("clw", 2, Fraction(6, 2))


@pytest.mark.parametrize("b", NOT_SCALARS)
def test_b_rejects_inexact_scalars(b):
    with pytest.raises(AlgebraError, match="b must be an int or a Fraction"):
        make_catalog("clw", 2, b)
    with pytest.raises(AlgebraError, match="b must be an int or a Fraction"):
        Algebra("X", 1, ["L"], [BracketRule("L", "L", "L", D + 2 * L)], b=b)


# -- bracket evaluation ---------------------------------------------------------

def test_bracket_generators():
    vir = make_catalog("vir")
    x = vir.gen_element(("L", 0))
    assert bracket(x, x) == vir.element({vir.gen("L", 0): D + 2 * L})


def test_bracket_left_slot_rule():
    vir = make_catalog("vir")
    x = vir.gen_element(("L", 0))
    assert bracket(x * D, x) == vir.element({vir.gen("L", 0): -L * (D + 2 * L)})


def test_bracket_right_slot_rule():
    vir = make_catalog("vir")
    x = vir.gen_element(("L", 0))
    assert bracket(x, x * D) == vir.element({vir.gen("L", 0): (D + L) * (D + 2 * L)})


def test_bracket_grading():
    cw = make_catalog("cw", 3)
    out = bracket(cw.gen_element(("L", 1)), cw.gen_element(("L", 2)))
    assert set(out.terms) == {cw.gen("L", 0)}


def test_bracket_mismatched_algebras():
    vir = make_catalog("vir")
    cw = make_catalog("cw", 2)
    with pytest.raises(AlgebraError, match="mismatched"):
        bracket(vir.gen_element(("L", 0)), cw.gen_element(("L", 0)))


def test_bracket_rejects_bad_spectral():
    vir = make_catalog("vir")
    x = vir.gen_element(("L", 0))
    with pytest.raises(AlgebraError):
        bracket(x, x, Var.D)
    with pytest.raises(AlgebraError):
        bracket(x, x, D + L)


def test_bracket_bilinearity_smoke():
    rng = make_rng(10)
    clw = make_catalog("clw", 2, Fraction(-3, 2))
    for _ in range(200):
        x, x2, y = (random_element(rng, clw) for _ in range(3))
        alpha = random_fraction(rng)
        assert bracket(alpha * x + x2, y) == alpha * bracket(x, y) + bracket(x2, y)
        assert bracket(y, alpha * x + x2) == alpha * bracket(y, x) + bracket(y, x2)


def test_bracket_sesquilinearity_smoke():
    rng = make_rng(11)
    clw = make_catalog("clw", 2, 1)
    for _ in range(200):
        x, y = random_element(rng, clw), random_element(rng, clw)
        assert bracket(x * D, y) == -L * bracket(x, y)
        assert bracket(x, y * D) == (D + L) * bracket(x, y)


# -- second slot substitution -----------------------------------------------------

def test_second_slot_subst_basic():
    vir = make_catalog("vir")
    e = vir.element({vir.gen("L", 0): D + 2 * L})
    assert second_slot_subst(e) == vir.element({vir.gen("L", 0): -D - 2 * L})
    assert second_slot_subst(vir.zero_element()).is_zero


def test_second_slot_subst_b_coefficient():
    # (b*d + (b-1)*l) with l -> -d-l expands by hand to d + (1-b)l:
    #   b*d + (b-1)(-d-l) = (b-b+1)d + (1-b)l
    clw = make_catalog("clw", 1)
    gid = clw.gen("G", 0)
    e = clw.element({gid: B * D + (B - 1) * L})
    expected = Poly({mono(d=1): 1, mono(l=1): 1, mono(l=1, b=1): -1})
    assert second_slot_subst(e) == clw.element({gid: expected})


def test_second_slot_subst_involution():
    rng = make_rng(12)
    clw = make_catalog("clw", 3)
    for _ in range(100):
        e = random_element(rng, clw)
        assert second_slot_subst(second_slot_subst(e)) == e


# -- axiom checking ---------------------------------------------------------------

def test_vir_axioms_pass_with_hand_checked_jacobi():
    vir = make_catalog("vir")
    report = check_axioms(vir)
    assert report.passed
    # the LLL Jacobi residual is
    # (d+l+2m)(d+2l) - (l-m)(d+2l+2m) - (d+m+2l)(d+2m) = 0
    t1 = (D + L + 2 * M) * (D + 2 * L)
    t2 = (L - M) * (D + 2 * L + 2 * M)
    t3 = (D + M + 2 * L) * (D + 2 * M)
    assert t1 - t2 - t3 == Poly.zero()
    x = vir.gen_element(("L", 0))
    assert bracket(x, bracket(x, x, Var.M), Var.L) == vir.element({vir.gen("L", 0): t1})


def test_clw_axioms_symbolic():
    assert check_axioms(make_catalog("clw", 2)).passed


def test_clw_axioms_m4():
    assert check_axioms(make_catalog("clw", 4)).passed
    assert check_axioms(make_catalog("clw", 4, 2)).passed


def test_tampered_rule_fails_skew():
    bad = Algebra("BadVir", 1, ["L"], [BracketRule("L", "L", "L", D + L)])
    report = check_axioms(bad)
    assert not report.passed
    # skew residual: (d+l) + (d + (-d-l)) = d
    (args, value), = [(a, r) for kind, a, r in report.failures() if kind == "skew"]
    assert args == (bad.gen("L", 0), bad.gen("L", 0))
    assert value == bad.element({bad.gen("L", 0): D})
    assert "FAIL" in report.to_text()
    assert report.to_json()["failures"][0]["residual"] == "(d)*L:0"


def test_report_counts():
    report = check_axioms(make_catalog("cw", 2))
    assert report.checked == {"skew": 4, "jacobi": 8}
    assert report.to_json()["checked"] == {"skew": 4, "jacobi": 8}


def oracle_axiom_failures(algebra):
    """The failing skew and Jacobi residuals as (kind, args, residual), in
    check_axioms' order, swept with bracket alone: an oracle that shares
    no code with bimaps.verify_map."""
    gens = algebra.generators()
    basis = {g: algebra.gen_element(g) for g in gens}
    out = []
    for gi, gj in itertools.product(gens, repeat=2):
        x, y = basis[gi], basis[gj]
        r = bracket(x, y, Var.L) + second_slot_subst(bracket(y, x, Var.L), Var.L)
        if not r.is_zero:
            out.append(("skew", (gi, gj), r))
    for gi, gj, gk in itertools.product(gens, repeat=3):
        x, y, z = basis[gi], basis[gj], basis[gk]
        r = bracket(x, bracket(y, z, Var.M), Var.L) \
            - bracket(bracket(x, y, Var.L), z, L + M) \
            - bracket(y, bracket(x, z, Var.L), Var.M)
        if not r.is_zero:
            out.append(("jacobi", (gi, gj, gk), r))
    return out


def assert_axioms_match_oracle(algebra):
    report = check_axioms(algebra)
    n = len(algebra.generators())
    assert report.checked == {"skew": n ** 2, "jacobi": n ** 3}
    failures = report.failures()
    expected = oracle_axiom_failures(algebra)
    assert failures == expected
    assert [str(r) for _, _, r in failures] == [str(r) for _, _, r in expected]
    assert report.passed == (not expected)


def bad_clw_rules(b):
    # [G_l L] drops the -l of the CLW rule, and [L_l L] halves its d
    return algebra_from_dict({
        "name": "BadCLW", "modulus": 2, "families": ["L", "G"], "b": b,
        "rules": [
            {"left": "L", "right": "L", "target": "L", "coeff": "1/2*d + 2*l"},
            {"left": "L", "right": "G", "target": "G", "coeff": "d + l - b*l"},
            {"left": "G", "right": "L", "target": "G", "coeff": "-(b*d + b*l)"},
        ]})


AXIOM_ORACLE_CASES = {
    "vir": lambda: make_catalog("vir"),
    "cw3": lambda: make_catalog("cw", 3),
    "clw2-symbolic": lambda: make_catalog("clw", 2),
    "clw3-b2": lambda: make_catalog("clw", 3, 2),
    "clw2-b3/2": lambda: make_catalog("clw", 2, Fraction(3, 2)),
    "inhomogeneous-clw": lambda: load_algebra(
        Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json"),
    "tampered-vir": lambda: Algebra("BadVir", 1, ["L"], [BracketRule("L", "L", "L", D + L)]),
    "bad-clw-symbolic": lambda: bad_clw_rules("symbolic"),
    "bad-clw-b2/3": lambda: bad_clw_rules("2/3"),
}


@pytest.mark.parametrize("case", AXIOM_ORACLE_CASES)
def test_check_axioms_matches_bracket_oracle(case):
    assert_axioms_match_oracle(AXIOM_ORACLE_CASES[case]())


# -- elements ----------------------------------------------------------------------

def test_element_merges_indices_mod_m():
    cw = make_catalog("cw", 2)
    e = cw.element({GeneratorId("L", 3): D, GeneratorId("L", 1): L})
    assert e == cw.element({cw.gen("L", 1): D + L})


def test_element_rejects_unknown_family():
    cw = make_catalog("cw", 2)
    with pytest.raises(AlgebraError):
        cw.element({GeneratorId("X", 0): D})


def test_element_accepts_plain_tuple_keys():
    clw = make_catalog("clw", 2)
    e = clw.element({("L", 0): 1, ("G", 3): D})
    assert e == clw.element({clw.gen("L", 0): Poly.one(), clw.gen("G", 1): D})
    assert all(type(g) is GeneratorId for g in e.terms)


@pytest.mark.parametrize("key", ["L:0", "L0", 5, ("L", 0, 1), ("L",), ("L", "0"),
                                 ("L", 1.5), ("X", 0)])
def test_element_rejects_non_generator_keys(key):
    clw = make_catalog("clw", 2)
    with pytest.raises(AlgebraError):
        clw.element({key: D})


def test_element_str():
    clw = make_catalog("clw", 2)
    e = clw.element({clw.gen("G", 1): D, clw.gen("L", 0): Poly.one()})
    assert str(e) == "(1)*L:0 + (d)*G:1"
    assert str(clw.zero_element()) == "0"


# -- definition files ----------------------------------------------------------------

def cw_file_dict(m):
    return {
        "name": f"CW(m={m})",
        "modulus": m,
        "families": ["L"],
        "b": "symbolic",
        "rules": [{"left": "L", "right": "L", "target": "L", "coeff": "d + 2*l"}],
    }


def test_load_algebra_round_trip(tmp_path):
    path = tmp_path / "cw4.json"
    path.write_text(json.dumps(cw_file_dict(4)))
    assert load_algebra(path) == make_catalog("cw", 4)


def test_algebra_to_dict_round_trip():
    clw = make_catalog("clw", 2, Fraction(-3, 2))
    assert algebra_from_dict(algebra_to_dict(clw)) == clw


def test_duplicate_rule_rejected():
    data = cw_file_dict(2)
    data["rules"].append({"left": "L", "right": "L", "target": "L", "coeff": "d"})
    with pytest.raises(AlgebraError, match="duplicate"):
        algebra_from_dict(data)


def test_unknown_family_rejected():
    data = cw_file_dict(2)
    data["rules"][0]["left"] = "X"
    with pytest.raises(AlgebraError, match="unknown family"):
        algebra_from_dict(data)


def test_spectral_variable_in_coeff_rejected():
    data = cw_file_dict(2)
    data["rules"][0]["coeff"] = "d + 2*m"
    with pytest.raises(AlgebraError, match="only d, l, b"):
        algebra_from_dict(data)


def test_bad_coeff_expression_rejected():
    data = cw_file_dict(2)
    data["rules"][0]["coeff"] = "d + "
    with pytest.raises(AlgebraError, match="rule"):
        algebra_from_dict(data)


def test_numeric_b_substituted_on_load():
    data = {
        "name": "Loaded", "modulus": 1, "families": ["L", "G"],
        "b": "-1",
        "rules": [{"left": "L", "right": "G", "target": "G", "coeff": "d + l - b*l"}],
    }
    alg = algebra_from_dict(data)
    assert alg.rule("L", "G").coeff == D + 2 * L
    assert alg.rule("G", "L").target is None  # omitted pairs are zero


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(AlgebraError, match="invalid JSON"):
        load_algebra(path)


def test_missing_file():
    with pytest.raises(AlgebraError, match="cannot read"):
        load_algebra("/nonexistent/alg.json")


def test_loaded_table_not_axiom_checked():
    # loading validates structure only; an invalid table loads fine
    data = cw_file_dict(1)
    data["rules"][0]["coeff"] = "d + l"
    alg = algebra_from_dict(data)
    assert not check_axioms(alg).passed
