"""Unit tests for bilinear maps, identity residuals and families."""

import itertools
import json
from fractions import Fraction

import pytest

from lcalab import (
    AlgebraError,
    Ansatz,
    BilinearMap,
    Poly,
    VARS,
    assemble,
    bracket,
    check_axioms,
    FamilyError,
    GeneratorId,
    MapError,
    TAGS,
    algebra_from_dict,
    load_map,
    make_catalog,
    make_family,
    map_eval,
    map_from_dict,
    map_to_dict,
    normalize_tags,
    residual,
    verify_map,
)
from lcalab import bimaps
from lcalab.bimaps import TAG_ARITY, SweepMemo, _integral_multiple
from lcalab.poly import B, D, G, L, M, Var

from randgen import make_rng, random_element, random_fraction, random_poly


def raw_g_map(clw):
    """phi(L,L) = (d+2l)G on a CLW(m=1) algebra, built from a raw table."""
    lg, gg = clw.gen("L", 0), clw.gen("G", 0)
    return BilinearMap(clw, {(lg, lg): clw.element({gg: D + 2 * L})})


# -- evaluation ---------------------------------------------------------------

def test_map_eval_inner_on_generators():
    vir = make_catalog("vir")
    phi = make_family(vir, "inner", t=1)
    x = vir.gen_element(("L", 0))
    assert map_eval(phi, x, x) == vir.element({vir.gen("L", 0): D + 2 * L})


def test_map_eval_left_slot_rule():
    vir = make_catalog("vir")
    phi = make_family(vir, "inner", t=1)
    x = vir.gen_element(("L", 0))
    assert map_eval(phi, x * D, x) == vir.element({vir.gen("L", 0): -L * (D + 2 * L)})


@pytest.mark.parametrize("kind, m", [("vir", 1), ("cw", 3), ("clw", 2)])
def test_bracket_is_inner_map_with_t_one(kind, m):
    # One slot rule serves both: the bracket is the inner map at t = 1.
    alg = make_catalog(kind, m)  # clw keeps b symbolic
    phi = make_family(alg, "inner", t=1)
    rng = make_rng(21)
    for s in (L, M, L + M, M + G):
        for _ in range(25):
            x, y = random_element(rng, alg), random_element(rng, alg)
            assert bracket(x, y, s) == map_eval(phi, x, y, s)


# A per-term slot rule that renames l on every call and keeps no cache: the
# oracle for bracket and map_eval, whose renamed tables are cached per
# spectral parameter.
def oracle_slot_eval(table, x, y, s):
    alg = x.algebra
    out = alg.zero_element()
    for gi, p in x.terms.items():
        for gj, q in y.terms.items():
            value = table.get((gi, gj))
            if value is None:
                continue
            for gt, c in value.terms.items():
                coeff = p.subst({Var.D: -s}) * q.subst({Var.D: D + s}) * c.subst({Var.L: s})
                out = out + alg.element({gt: coeff})
    return out


def nonzero_element(rng, alg):
    while True:
        e = random_element(rng, alg)
        if not e.is_zero:
            return e


def oracle_maps(alg):
    """Closed-form and random tables over alg, coefficients in d, l, b."""
    rng = make_rng(34)
    gens = alg.generators()
    raw = {(gi, gj): nonzero_element(rng, alg).subst_coeffs({Var.M: L - B})
           for gi in gens for gj in gens}
    maps = [make_family(alg, "inner", t=Fraction(3, 2)), BilinearMap(alg, raw)]
    if len(alg.families) == 1:
        maps.append(make_family(alg, "cw_shift", shift=1, a=-2))
    else:
        maps.append(make_family(alg, "clw_shift", shift=1, a=Fraction(-9, 4)))
    return maps


ORACLE_SPECTRALS = (L, M, L + M, M + G)

# Each spectral parameter twice, as a Var or as a Poly, and l + m and
# m + g as two distinct but equal Poly objects each.
MEMO_SPECTRALS = (Var.L, L + M, M, L, M + G, Var.M, M + L, G + M)


@pytest.mark.parametrize("kind, m, b", [("vir", 1, None), ("cw", 3, None),
                                        ("clw", 2, None), ("clw", 2, -1)])
def test_kernel_matches_per_term_oracle(kind, m, b):
    alg = make_catalog(kind, m, b)
    rng = make_rng(35)
    maps = oracle_maps(alg)
    if b is not None:  # the tagged ansatz map: one distinct b^k per unknown
        maps = [Ansatz(alg, 1).tagged_map()]
    for s in ORACLE_SPECTRALS:
        for _ in range(6):
            x, y = nonzero_element(rng, alg), nonzero_element(rng, alg)
            assert bracket(x, y, s) == oracle_slot_eval(alg.table, x, y, s)
            for phi in maps:
                assert map_eval(phi, x, y, s) == oracle_slot_eval(phi.table, x, y, s)
    # The same operand objects again, under every spectral parameter twice
    # and in alternating order: later evaluations read the substitutions
    # that earlier ones left in the operands' memos.
    operands = [(nonzero_element(rng, alg), nonzero_element(rng, alg)) for _ in range(4)]
    for s in MEMO_SPECTRALS:
        s_poly = Poly.variable(s) if isinstance(s, Var) else s
        for x, y in operands:
            assert bracket(x, y, s) == oracle_slot_eval(alg.table, x, y, s_poly)
            for phi in maps:
                assert map_eval(phi, x, y, s) == oracle_slot_eval(phi.table, x, y, s_poly)


def test_renamed_tables_do_not_leak_between_maps():
    clw = make_catalog("clw", 2)
    rng = make_rng(36)
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4))
    psi = oracle_maps(clw)[1]
    x, y = nonzero_element(rng, clw), nonzero_element(rng, clw)
    # l+m, then m, then l+m again: the cached table for l+m is reused.
    first = map_eval(phi, x, y, L + M)
    assert map_eval(phi, x, y, M) == oracle_slot_eval(phi.table, x, y, M)
    assert map_eval(phi, x, y, L + M) == first == oracle_slot_eval(phi.table, x, y, L + M)
    # Maps built from phi after its tables were renamed have their own.
    scaled, den = _integral_multiple(phi)
    assert den == 4
    for derived in (2 * phi, phi + psi, scaled):
        for s in ORACLE_SPECTRALS:
            assert map_eval(derived, x, y, s) == oracle_slot_eval(derived.table, x, y, s)
    assert map_eval(scaled, x, y, L + M) == first * den


def test_memo_leaves_operands_and_constants_unchanged():
    clw = make_catalog("clw", 2)
    l0, g1 = clw.gen("L", 0), clw.gen("G", 1)
    x = clw.element({l0: D + M, g1: D * D - 3 * B})
    y = clw.element({l0: 2 * D * M - 1, g1: M})
    coeffs = list(x.terms.values()) + list(y.terms.values())
    copies = [Poly(c.terms) for c in coeffs]
    seen = [(c.terms.copy(), hash(c), str(c)) for c in coeffs]
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4))
    for s in MEMO_SPECTRALS:
        bracket(x, y, s)
        map_eval(phi, x, y, s)
    assert all(c._memo for c in coeffs[:3])  # the three coefficients with d
    assert [(c.terms, hash(c), str(c)) for c in coeffs] == seen
    assert coeffs == copies
    assert [hash(c) for c in coeffs] == [hash(c) for c in copies]
    # Full sweeps leave no memo on the module constants.
    assert verify_map(phi).passed
    assert check_axioms(clw).passed
    for constant in (Poly.zero(), Poly.one(), *(Poly.variable(v) for v in VARS)):
        assert not constant._memo


def test_tables_are_read_only():
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "inner", t=1)
    pair = (clw.gen("L", 0), clw.gen("L", 1))
    value = clw.element({clw.gen("G", 1): D})
    with pytest.raises(TypeError):
        clw.table[pair] = value
    with pytest.raises(TypeError):
        phi.table[pair] = value
    assert clw.table[pair] == phi.table[pair] != value


def test_map_table_accepts_plain_tuple_keys():
    clw = make_catalog("clw", 2)
    value = clw.element({("G", 1): D + 2 * L})
    phi = BilinearMap(clw, {(("L", 0), ("L", 3)): value})
    assert phi == BilinearMap(clw, {(clw.gen("L", 0), clw.gen("L", 1)): value})
    assert all(type(g) is GeneratorId for pair in phi.table for g in pair)


@pytest.mark.parametrize("key, error", [
    (5, MapError), ("ab", MapError), ((("L", 0),) * 3, MapError),
    (("L", ("G", 1)), AlgebraError), ((("L", 0), "G:1"), AlgebraError),
    ((("L", 0), ("X", 1)), AlgebraError),
])
def test_map_table_rejects_non_pair_keys(key, error):
    clw = make_catalog("clw", 2)
    with pytest.raises(error):
        BilinearMap(clw, {key: clw.gen_element(("L", 0))})


def test_map_eval_zero_table():
    vir = make_catalog("vir")
    phi = BilinearMap.zero(vir)
    x = vir.gen_element(("L", 0))
    assert map_eval(phi, x, x).is_zero


def test_map_eval_mismatched_algebra():
    vir = make_catalog("vir")
    cw = make_catalog("cw", 2)
    phi = make_family(vir, "inner", t=1)
    with pytest.raises(MapError, match="mismatched"):
        map_eval(phi, cw.gen_element(("L", 0)), cw.gen_element(("L", 0)))


def test_table_rejects_spectral_coefficients():
    vir = make_catalog("vir")
    gid = vir.gen("L", 0)
    with pytest.raises(MapError, match="only d, l, b"):
        BilinearMap(vir, {(gid, gid): vir.element({gid: D + M})})


# -- residuals ------------------------------------------------------------------

def test_inner_map_def1b_residual_zero():
    vir = make_catalog("vir")
    phi = make_family(vir, "inner", t=1)
    gid = vir.gen("L", 0)
    assert residual(phi, "def1b", (gid, gid, gid)).is_zero


def test_cw_shift_lem2_residual_zero():
    cw = make_catalog("cw", 3)
    phi = make_family(cw, "cw_shift", shift=1, a=1)
    gens = cw.generators()
    assert residual(phi, "lem2", (gens[0], gens[1], gens[2], gens[0])).is_zero


def test_negative_control_def1b_obstruction():
    # The raw g-component map fails the Leibniz rule away from b = -1; its
    # residual carries the (b+1) factor seen by matching coefficients.
    gid_args = None
    for b, expected_zero in ((0, False), (-1, True)):
        clw = make_catalog("clw", 1, b)
        phi = raw_g_map(clw)
        gid = clw.gen("L", 0)
        gid_args = (gid, gid, gid)
        r = residual(phi, "def1b", gid_args)
        assert r.is_zero == expected_zero
        if not expected_zero:
            # hand expansion: l*(d + l + 2m) on G:0
            assert r.value == clw.element({clw.gen("G", 0): L * (D + L + 2 * M)})

    clw = make_catalog("clw", 1)  # symbolic b
    r = residual(raw_g_map(clw), "def1b", gid_args)
    assert r.value == clw.element({clw.gen("G", 0): (B + 1) * L * (D + L + 2 * M)})


def test_negative_control_fails_lem1_too():
    # def1b and lem1 are equivalent forms, so the bad map fails both.
    clw = make_catalog("clw", 1, 0)
    phi = raw_g_map(clw)
    assert not verify_map(phi, ["def1b"]).passed
    assert not verify_map(phi, ["lem1"]).passed
    assert verify_map(phi, ["def1a"]).passed


def test_residual_arity_and_tag_validation():
    vir = make_catalog("vir")
    phi = make_family(vir, "inner", t=1)
    gid = vir.gen("L", 0)
    with pytest.raises(MapError, match="takes 3"):
        residual(phi, "def1b", (gid, gid))
    with pytest.raises(MapError, match="unknown identity"):
        residual(phi, "jacobi", (gid, gid))
    with pytest.raises(MapError):
        normalize_tags(["def1a", "nope"])


def test_bare_string_tags_rejected():
    # a str is an iterable of characters, not of tags
    phi = make_family(make_catalog("vir"), "inner", t=1)
    expected = r"identity tags must be a collection of tags such as \('def1b',\)"
    for call in (normalize_tags, lambda tags: verify_map(phi, tags),
                 lambda tags: assemble(Ansatz(make_catalog("vir"), 1), tags)):
        with pytest.raises(MapError, match=expected):
            call("def1b")
    assert verify_map(phi, ("def1b",)).checked == 1


def test_residual_stores_validated_generators():
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "inner", t=1)
    r = residual(phi, "def1a", [clw.gen("L", 0), ("G", 1)])
    assert r.args == (clw.gen("L", 0), clw.gen("G", 1))
    assert all(type(g) is GeneratorId for g in r.args)
    assert str(r) == "def1a (L:0, G:1): 0"
    # an index past the modulus is reduced mod m, in the residual too
    r = residual(phi, "def1b", [("L", 5), ("G", 2), clw.gen("L", 3)])
    assert r.args == (clw.gen("L", 1), clw.gen("G", 0), clw.gen("L", 1))
    assert r.value == residual(phi, "def1b", r.args).value
    assert str(r).startswith("def1b (L:1, G:0, L:1): ")


def test_residual_linearity():
    rng = make_rng(20)
    clw = make_catalog("clw", 2, 0)
    gens = clw.generators()

    def random_map():
        table = {}
        for gi in gens:
            for gj in gens:
                terms = {}
                for gt in rng.sample(gens, k=rng.randint(0, 1)):
                    terms[gt] = random_poly(rng, max_terms=2, max_exp=1,
                                            variables=(Var.D, Var.L))
                if terms:
                    table[(gi, gj)] = clw.element(terms)
        return BilinearMap(clw, table)

    arity = {"def1a": 2, "def1b": 3, "lem1": 3, "lem2": 4}
    for _ in range(60):
        phi, psi = random_map(), random_map()
        alpha = random_fraction(rng)
        combo = alpha * phi + psi
        for tag in TAGS:
            args = tuple(rng.choice(gens) for _ in range(arity[tag]))
            lhs = residual(combo, tag, args).value
            rhs = alpha * residual(phi, tag, args).value + residual(psi, tag, args).value
            assert lhs == rhs


# -- families --------------------------------------------------------------------

def test_inner_family_table():
    vir = make_catalog("vir")
    phi = make_family(vir, "inner", t=1)
    gid = vir.gen("L", 0)
    assert phi.table == {(gid, gid): vir.element({gid: D + 2 * L})}


@pytest.mark.parametrize("kind, m, b, family, params", [
    ("vir", 1, None, "cw_shift", {"a": 1}),
    ("clw", 2, None, "clw_shift", {"a": Fraction(3, 2), "g": 0}),
    ("clw", 2, -1, "clw_shift", {"a": Fraction(3, 2), "g": 0}),
], ids=["vir-cw_shift", "clw-symbolic-clw_shift", "clw-b=-1-clw_shift"])
def test_shift_zero_is_inner(kind, m, b, family, params):
    alg = make_catalog(kind, m, b)
    assert make_family(alg, family, shift=0, **params) == \
        make_family(alg, "inner", t=params["a"])


def test_cw_shift_targets():
    cw = make_catalog("cw", 3)
    phi = make_family(cw, "cw_shift", shift=2, a=Fraction(1, 2))
    value = phi.entry(cw.gen("L", 1), cw.gen("L", 1))
    assert value == cw.element({cw.gen("L", 1): Fraction(1, 2) * (D + 2 * L)})


def test_clw_shift_mixed_family_passes_everything():
    clw = make_catalog("clw", 2, -1)
    phi = make_family(clw, "clw_shift", shift=1, a=1, g=1)
    assert verify_map(phi, TAGS).passed


def test_clw_shift_g_guard():
    with pytest.raises(FamilyError, match="b = -1"):
        make_family(make_catalog("clw", 1, 0), "clw_shift", a=1, g=1)
    with pytest.raises(FamilyError, match="b = -1"):
        make_family(make_catalog("clw", 1), "clw_shift", a=1, g=1)  # symbolic b
    # g = 0 is fine anywhere
    make_family(make_catalog("clw", 1, 0), "clw_shift", a=1, g=0)


def test_family_kind_validation():
    vir = make_catalog("vir")
    clw = make_catalog("clw", 2)
    with pytest.raises(FamilyError):
        make_family(vir, "clw_shift")
    with pytest.raises(FamilyError):
        make_family(clw, "cw_shift")
    with pytest.raises(FamilyError, match="unknown family kind"):
        make_family(vir, "outer")


NOT_SCALARS = (0.5, 0.1, 1.0, True, False, "3/2")


def test_scalar_parameters_accept_ints_and_fractions():
    clw = make_catalog("clw", 2, -1)
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(3, 2), g=2)
    assert make_family(clw, "clw_shift", shift=1, a=Fraction(6, 4), g=Fraction(4, 2)) == phi
    assert 2 * phi == phi * Fraction(2) == phi + phi
    assert (phi * Fraction(2, 3)) * 3 == 2 * phi
    assert make_family(clw, "inner", t=Fraction(3, 2)) == \
        make_family(clw, "clw_shift", a=Fraction(3, 2)) == \
        3 * make_family(clw, "inner", t=1) * Fraction(1, 2)
    cw = make_catalog("cw", 3)
    assert make_family(cw, "cw_shift", shift=2, a=-2) == \
        make_family(cw, "cw_shift", shift=2, a=Fraction(-2))


@pytest.mark.parametrize("value", NOT_SCALARS)
def test_scalar_parameters_reject_inexact_values(value):
    clw = make_catalog("clw", 2, -1)
    phi = make_family(clw, "inner", t=1)
    for name in ("t", "a", "g"):
        with pytest.raises(FamilyError, match=f"{name} must be an int or a Fraction"):
            make_family(clw, "clw_shift" if name != "t" else "inner", **{name: value})
    with pytest.raises(FamilyError, match="a must be an int or a Fraction"):
        make_family(make_catalog("cw", 2), "cw_shift", a=value)
    with pytest.raises(MapError, match="factor must be an int or a Fraction"):
        phi * value
    with pytest.raises(MapError, match="factor must be an int or a Fraction"):
        value * phi
    with pytest.raises(FamilyError, match="shift must be an int"):
        make_family(clw, "clw_shift", shift=value)


def test_families_skew_coherent_symbolic():
    # make_family outputs satisfy skew-symmetry identically, b included.
    clw = make_catalog("clw", 2)
    for s in range(2):
        phi = make_family(clw, "clw_shift", shift=s, a=1, g=0)
        assert verify_map(phi, ["def1a"]).passed
    phi = make_family(clw, "inner", t=Fraction(-5, 3))
    assert verify_map(phi, ["def1a"]).passed


def test_verify_map_shift_families_cw2():
    cw = make_catalog("cw", 2)
    for s in range(2):
        phi = make_family(cw, "cw_shift", shift=s, a=1)
        report = verify_map(phi, ["def1a", "def1b"])
        assert report.passed
        assert report.checked == 4 + 8


def test_verify_zero_map_all_tags():
    clw = make_catalog("clw", 1, 0)
    report = verify_map(BilinearMap.zero(clw), TAGS)
    assert report.passed


# -- the sweep memo ------------------------------------------------------------------

def memo_free_sweep(phi, tags=TAGS):
    """(checked, failures) of a sweep of phi: one residual per tuple, no memo."""
    gens = phi.algebra.generators()
    results = [residual(phi, tag, args) for tag in normalize_tags(tags)
               for args in itertools.product(gens, repeat=TAG_ARITY[tag])]
    return len(results), [r for r in results if not r.is_zero]


def assert_sweep_matches_memo_free(phi, tags=TAGS):
    report = verify_map(phi, tags)
    checked, failures = memo_free_sweep(phi, tags)
    assert report.checked == checked
    assert [(r.tag, r.args, r.value) for r in report.failures] == \
        [(r.tag, r.args, r.value) for r in failures]
    assert [str(r) for r in report.failures] == [str(r) for r in failures]
    return report


def g_component_map(clw, shift=0):
    """The g-component of clw_shift alone, built from a raw table, so that
    it exists at any b: a biderivation only at b = -1."""
    ls = [g for g in clw.generators() if g.family == "L"]
    return BilinearMap(clw, {(x, y): clw.element({clw.gen("G", x.index + y.index + shift):
                                                  D + 2 * L})
                             for x in ls for y in ls})


TAMPERED = {"name": "BadVir", "modulus": 1, "families": ["L"], "b": "symbolic",
            "rules": [{"left": "L", "right": "L", "target": "L", "coeff": "d + l"}]}

SWEEP_CASES = {
    "vir-inner": (lambda: make_family(make_catalog("vir"), "inner", t=1), True),
    "cw3-inner": (lambda: make_family(make_catalog("cw", 3), "inner", t=-2), True),
    "cw3-shift": (lambda: make_family(make_catalog("cw", 3), "cw_shift", shift=1, a=3), True),
    "clw2-inner-symbolic": (lambda: make_family(make_catalog("clw", 2), "inner", t=1), True),
    "clw2-shift-symbolic": (lambda: make_family(make_catalog("clw", 2), "clw_shift",
                                                shift=1, a=2), True),
    "clw2-shift-b3/2": (lambda: make_family(make_catalog("clw", 2, Fraction(3, 2)),
                                            "clw_shift", shift=1, a=5), True),
    "clw2-shift-g-bm1": (lambda: make_family(make_catalog("clw", 2, -1), "clw_shift",
                                             shift=1, a=2, g=1), True),
    "tampered-inner": (lambda: make_family(algebra_from_dict(TAMPERED), "inner", t=1), False),
    "clw2-g-symbolic": (lambda: g_component_map(make_catalog("clw", 2), shift=1), False),
    "clw1-random-rational": (lambda: oracle_maps(make_catalog("clw", 1))[1], False),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_verify_map_matches_memo_free_residuals(case):
    build, passes = SWEEP_CASES[case]
    phi = build()
    report = assert_sweep_matches_memo_free(phi)
    assert report.passed == passes
    if case.endswith("rational"):
        assert _integral_multiple(phi)[1] != 1


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(-6, 5), Fraction(6, 3), 1])
def test_verify_map_rational_map_matches_residuals(scale):
    # verify_map sweeps an integral multiple of the map; the failures it
    # reports are still the map's own residuals, value and string alike.
    clw = make_catalog("clw", 2)  # symbolic b: the g-component fails def1b
    phi = (make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4))
           + g_component_map(clw)) * scale
    assert not assert_sweep_matches_memo_free(phi).passed
    assert verify_map(make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4)), TAGS).passed


def test_memo_of_another_map_is_refused():
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "inner", t=1)
    psi = g_component_map(clw)
    memo = SweepMemo(phi)
    x, y, z = clw.gen("L", 0), clw.gen("L", 1), clw.gen("L", 0)
    assert residual(phi, "def1b", (x, y, z), memo).is_zero
    # psi's residual at the same tuple is not zero; phi's entries must not
    # answer for it, and an equal copy of phi is another map too.
    assert not residual(psi, "def1b", (x, y, z)).is_zero
    for other in (psi, make_family(clw, "inner", t=1)):
        with pytest.raises(MapError, match="memo belongs to another map"):
            residual(other, "def1b", (x, y, z), memo)
    assert residual(phi, "def1b", (x, y, z), memo).is_zero


def test_consecutive_sweeps_do_not_share_entries(monkeypatch):
    memos = []

    class RecordingMemo(SweepMemo):
        def __init__(self, phi):
            super().__init__(phi)
            memos.append(self)

    monkeypatch.setattr(bimaps, "SweepMemo", RecordingMemo)
    clw = make_catalog("clw", 2)
    phi, psi = make_family(clw, "inner", t=1), g_component_map(clw)
    assert assert_sweep_matches_memo_free(phi).passed
    assert not assert_sweep_matches_memo_free(psi).passed
    assert len(memos) == 2 and memos[0] is not memos[1]
    assert [memo.phi for memo in memos] == [phi, psi]


def test_integral_multiple_has_int_coefficients():
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(-7, 4)) * Fraction(5, 3)
    scaled, den = _integral_multiple(phi)
    assert den == 12
    assert scaled == phi * den
    assert all(type(c) is int for value in scaled.table.values()
               for coeff in value.terms.values() for c in coeff.terms.values())
    integral = make_family(clw, "clw_shift", shift=1, a=3)
    assert _integral_multiple(integral) == (integral, 1)


def test_verify_report_contents():
    clw = make_catalog("clw", 1, 0)
    report = verify_map(raw_g_map(clw), TAGS)
    assert not report.passed
    data = report.to_json()
    assert data["passed"] is False
    assert any("def1b" == f["tag"] for f in data["failures"])
    # nonzero residuals carry their canonical polynomial string
    assert all("*G:0" in f["residual"] for f in data["failures"])
    assert "FAIL" in report.to_text()


# -- map files ----------------------------------------------------------------------

def test_map_round_trip():
    clw = make_catalog("clw", 2, -1)
    phi = make_family(clw, "clw_shift", shift=1, a=1, g=1)
    assert map_from_dict(map_to_dict(phi), clw) == phi


def test_map_file_round_trip(tmp_path):
    cw = make_catalog("cw", 2)
    phi = make_family(cw, "cw_shift", shift=1, a=Fraction(2, 3))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(map_to_dict(phi)))
    assert load_map(path, cw) == phi


def test_map_wrong_algebra_name():
    vir = make_catalog("vir")
    cw = make_catalog("cw", 2)
    data = map_to_dict(make_family(vir, "inner", t=1))
    with pytest.raises(MapError, match="is for algebra"):
        map_from_dict(data, cw)


def test_map_bad_entries():
    vir = make_catalog("vir")
    gid = "L:0"
    base = {"algebra": "Vir", "entries": [
        {"left": gid, "right": gid, "value": [{"gen": gid, "coeff": "d + 2*l"}]}]}
    ok = map_from_dict(base, vir)
    assert not ok.is_zero

    bad = json.loads(json.dumps(base))
    bad["entries"][0]["value"][0]["coeff"] = "d + 2*m"
    with pytest.raises(MapError, match="only d, l, b"):
        map_from_dict(bad, vir)

    bad = json.loads(json.dumps(base))
    bad["entries"][0]["left"] = "X:0"
    with pytest.raises(MapError, match="unknown family"):
        map_from_dict(bad, vir)

    bad = json.loads(json.dumps(base))
    bad["entries"].append(bad["entries"][0])
    with pytest.raises(MapError, match="duplicate"):
        map_from_dict(bad, vir)


def test_verify_map_budget():
    # lem2 makes n^4 residuals: 32^4 = 1,048,576 exceed the sweep cap;
    # all four tags count 32^2 + 2 * 32^3 + 32^4
    phi = make_family(make_catalog("cw", 32), "inner", t=1)
    with pytest.raises(MapError, match="1048576 residuals .* exceeds the cap"):
        verify_map(phi, ["lem2"])
    with pytest.raises(MapError, match="1115136 residuals"):
        verify_map(phi)

