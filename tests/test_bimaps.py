"""Unit tests for bilinear maps, identity residuals and families."""

import gc
import itertools
import json
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import lcm
from pathlib import Path

import pytest

import lcalab.solver
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
    load_algebra,
    load_map,
    make_catalog,
    make_family,
    map_eval,
    map_from_dict,
    map_to_dict,
    normalize_tags,
    residual,
    solve_bider,
    verify_map,
)
from lcalab import bimaps
from lcalab.algebra import Element, _mapped_table, _renamed_table
from lcalab.bimaps import (PHI_SLOTS, TAG_ARITY, _identity, _integral_multiple,
                           _is_equivariant, _sweep_memo, shift_targets)
from lcalab.poly import B, D, G, L, M, Var

from randgen import make_rng, random_element, random_fraction, random_poly

INHOMOGENEOUS = Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json"

# Equal to the int 1, and hashing like it, but not ints.
NON_INT_ONES = (1.0, True, Fraction(1), Decimal(1))


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
    if b is not None:  # the tagged class-0 ansatz map: one distinct b^k per unknown
        ansatz = Ansatz(alg, 1)
        maps = [ansatz._map((k, k, 1) for k in range(ansatz.n_unknowns)
                            if (u := ansatz.unknown(k)).target.index ==
                            (u.left.index + u.right.index) % m)]
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
    # A map whose values are not shared: one dict per pair, read from a file.
    clw3 = make_catalog("clw", 3)
    perturbed = load_map(Path(__file__).parent / "clw3_perturbed_g_map.json", clw3)
    x3, y3 = nonzero_element(rng, clw3), nonzero_element(rng, clw3)
    for s in ORACLE_SPECTRALS:
        assert map_eval(perturbed, x3, y3, s) == oracle_slot_eval(perturbed.table, x3, y3, s)
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


def test_map_table_refuses_two_keys_of_one_pair():
    # ("L", 0) and ("L", 2) name one generator at m = 2: the map must not
    # keep one value and drop the other, a zero value included, as the file
    # reader refuses a repeated pair
    clw = make_catalog("clw", 2)
    one, two = clw.element({("G", 0): D}), clw.element({("G", 0): L})
    for first in (one, clw.zero_element()):
        with pytest.raises(MapError, match=r"duplicate entry for pair \(L:0,L:0\)"):
            BilinearMap(clw, {(("L", 0), ("L", 0)): first, (("L", 2), ("L", 0)): two})
    assert BilinearMap(clw, {(("L", 0), ("L", 0)): one, (("L", 2), ("L", 1)): two}).table == \
        {(clw.gen("L", 0), clw.gen("L", 0)): one, (clw.gen("L", 0), clw.gen("L", 1)): two}


@pytest.mark.parametrize("index", NON_INT_ONES, ids=repr)
def test_map_keys_and_residual_args_refuse_non_int_indices(index):
    clw = make_catalog("clw", 2)
    value = clw.gen_element(("L", 0))
    for pair in ((("L", index), ("L", 0)), (("L", 0), ("G", index))):
        with pytest.raises(AlgebraError, match="index must be an int"):
            BilinearMap(clw, {pair: value})
    phi = make_family(clw, "inner")
    with pytest.raises(AlgebraError, match="index must be an int"):
        residual(phi, "def1a", [("L", index), ("G", 0)])
    with pytest.raises(AlgebraError, match="index must be an int"):
        residual(phi, "def1b", [("L", 0), ("G", 1), ("G", index)])


@pytest.mark.parametrize("key, error", [
    (5, MapError), ("ab", MapError), ((("L", 0),) * 3, MapError),
    (("L", ("G", 1)), AlgebraError), ((("L", 0), "G:1"), AlgebraError),
    ((("L", 0), ("X", 1)), AlgebraError),
])
def test_map_table_rejects_non_pair_keys(key, error):
    clw = make_catalog("clw", 2)
    with pytest.raises(error):
        BilinearMap(clw, {key: clw.gen_element(("L", 0))})
    # a value that is no Element is refused, naming its pair
    pair = (clw.gen("L", 0), clw.gen("G", 1))
    for value in ({clw.gen("G", 1): D}, D + L):
        with pytest.raises(MapError, match=r"entry \(L:0,G:1\): value must be an Element, "
                                           rf"got {type(value).__name__}"):
            BilinearMap(clw, {pair: value})


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


def test_table_checks_each_coefficient_object_once_and_still_every_one():
    # The table checks each distinct coefficient object once: a spectral
    # coefficient is refused when one object fills every pair, and when a
    # fresh object holds it on the last pair only.
    clw = make_catalog("clw", 2)
    gens = clw.generators()
    shared = D + M
    with pytest.raises(MapError, match=r"entry \(L:0,L:0\): .*only d, l, b"):
        BilinearMap(clw, {(x, y): clw.element({y: shared}) for x in gens for y in gens})
    allowed = D + 2 * L
    table = {(x, y): clw.element({y: allowed}) for x in gens for y in gens}
    assert len(BilinearMap(clw, table).table) == len(gens) ** 2
    last = list(table)[-1]
    table[last] = clw.element({clw.gen("L", 0): allowed, clw.gen("G", 0): L * M})
    with pytest.raises(MapError, match=rf"entry \({last[0]},{last[1]}\): .*only d, l, b"):
        BilinearMap(clw, table)


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


def test_identity_evaluates_phi_in_slot_order():
    # the solver hands out one map per phi slot in call order, so the pairs
    # on which _identity evaluates phi must follow PHI_SLOTS; at the
    # indices 1, 2, 4, 3 of CW(m=5) no two slots of one identity share a
    # pair, so the order is pinned
    cw = make_catalog("cw", 5)
    phi = make_family(cw, "inner")
    args = [cw.gen("L", i) for i in (1, 2, 4, 3)]
    elements = [cw.gen_element(g) for g in args]

    def generator(operand):
        if type(operand) is int:
            return args[operand]
        (gt,) = bracket(elements[operand[0]], elements[operand[1]]).terms
        return gt

    for tag, slots in PHI_SLOTS.items():
        pairs = []

        def ph(x, y, spectral):
            pairs.append((*x.terms, *y.terms))
            return map_eval(phi, x, y, spectral)

        _identity(tag, elements[:TAG_ARITY[tag]], bracket, ph, partial(bimaps._combine, tag))
        expected = [(generator(left), generator(right)) for left, right in slots]
        assert pairs == expected, tag
        assert len(set(pairs)) == len(pairs), tag


def test_residual_takes_one_map_per_slot():
    # residuals are linear in each slot: the residual of phi is the sum of
    # those with phi in one slot and zero in the others
    clw = make_catalog("clw", 2, Fraction(1, 3))
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4))
    zero = BilinearMap.zero(clw)
    gens = clw.generators()
    for tag, slots in PHI_SLOTS.items():
        for args in itertools.product(gens[::3], repeat=TAG_ARITY[tag]):
            total = clw.zero_element()
            for i in range(len(slots)):
                maps = [phi if j == i else zero for j in range(len(slots))]
                total = total + residual(maps, tag, args).value
            assert total == residual(phi, tag, args).value
            assert residual([phi] * len(slots), tag, args) == residual(phi, tag, args)
        with pytest.raises(MapError, match=f"{tag} evaluates phi at {len(slots)} slots, "
                                           f"got {len(slots) + 1} maps"):
            residual([phi] * (len(slots) + 1), tag, args)


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
    # the g-component needs the rules of the CLW table at b = -1
    refused = [make_catalog("clw", 1, 0), make_catalog("clw", 1),  # symbolic b
               make_catalog("vir"), make_catalog("cw", 2),
               load_algebra(INHOMOGENEOUS)]  # b = -1, with a constant term
    for algebra in refused:
        with pytest.raises(FamilyError, match="only on the CLW table at b = -1"):
            make_family(algebra, "clw_shift", a=1, g=1)
        # g = 0 is fine anywhere
        make_family(algebra, "clw_shift", a=1, g=0)
    # the same table written b-free, with b left symbolic, qualifies
    b_free = algebra_from_dict({
        "name": "CLW-b-free", "modulus": 2, "families": ["L", "G"], "b": "symbolic",
        "rules": [{"left": left, "right": right, "target": target, "coeff": "d + 2*l"}
                  for left, right, target in (("L", "L", "L"), ("L", "G", "G"),
                                              ("G", "L", "G"))]})
    phi = make_family(b_free, "clw_shift", shift=1, a=2, g=1)
    assert map_to_dict(phi)["entries"] == map_to_dict(make_family(
        make_catalog("clw", 2, -1), "clw_shift", shift=1, a=2, g=1))["entries"]
    assert verify_map(phi, TAGS).passed


def test_family_kind_validation():
    # cw_shift and clw_shift at g = 0 are the one shifted bracket, on any table
    vir = make_catalog("vir")
    clw = make_catalog("clw", 2)
    for algebra in (vir, clw):
        assert make_family(algebra, "cw_shift", shift=1, a=2) == \
            make_family(algebra, "clw_shift", shift=1, a=2, g=0)
    with pytest.raises(FamilyError, match="unknown family kind"):
        make_family(vir, "outer")


@pytest.mark.parametrize("kind, params", [
    ("inner", {"shift": 1}), ("inner", {"a": 2}), ("inner", {"g": Fraction(1, 2)}),
    ("cw_shift", {"t": 5}), ("cw_shift", {"g": 3}), ("cw_shift", {"t": 5, "g": 3}),
    ("clw_shift", {"t": 0}),
])
def test_family_refuses_parameters_its_kind_does_not_take(kind, params):
    alg = make_catalog("cw", 2) if kind == "cw_shift" else make_catalog("clw", 2, -1)
    with pytest.raises(FamilyError, match=f"{kind} takes no "):
        make_family(alg, kind, **params)


def test_family_accepts_defaults_of_parameters_it_does_not_take():
    clw = make_catalog("clw", 2, -1)
    cw = make_catalog("cw", 2)
    assert make_family(clw, "inner", t=2, shift=0, a=Fraction(1), g=0) == \
        make_family(clw, "inner", t=2)
    assert make_family(cw, "cw_shift", shift=1, a=2, t=Fraction(2, 2), g=0) == \
        make_family(cw, "cw_shift", shift=1, a=2)
    assert make_family(clw, "clw_shift", shift=1, a=2, g=1, t=1) == \
        make_family(clw, "clw_shift", shift=1, a=2, g=1)


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


def perturbed(phi, how):
    """phi with the value on its last pair, whose indices are both m - 1,
    changed so that phi is not index-equivariant (for m > 1): its target
    index moved by one, its coefficients doubled, or the pair dropped.  An
    orbit sweep reads only the pairs at index 0, so it would miss the
    change."""
    table = dict(phi.table)
    pair = phi.pairs()[-1]
    if how == "moved":
        table[pair] = shift_targets(table[pair], 1)
    elif how == "scaled":
        table[pair] = table[pair] * 2
    else:
        del table[pair]
    return BilinearMap(phi.algebra, table)


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
    # the benchmark's two sweeps, on CLW(3): a rational clw_shift at
    # symbolic b, and the g-component control that fails def1b there
    "clw3-shift-a9/5-symbolic": (lambda: make_family(make_catalog("clw", 3), "clw_shift",
                                                     shift=2, a=Fraction(9, 5)), True),
    "clw3-g-symbolic": (lambda: g_component_map(make_catalog("clw", 3), shift=1), False),
    # maps that are not index-equivariant, which take the full sweep
    "cw3-shift-target-moved": (lambda: perturbed(make_family(make_catalog("cw", 3), "cw_shift",
                                                             shift=1, a=3), "moved"), False),
    "clw2-shift-coeff-changed": (lambda: perturbed(make_family(
        make_catalog("clw", 2), "clw_shift", shift=1, a=2), "scaled"), False),
    "clw3-shift-member-dropped": (lambda: perturbed(make_family(
        make_catalog("clw", 3), "clw_shift", shift=2, a=Fraction(9, 5)), "dropped"), False),
}


def random_equivariant_map(alg, salt):
    """A random value on each family pair at index 0, shifted into place
    on every other pair: an index-equivariant map that fails on many
    family tuples of every tag."""
    rng = make_rng(salt)
    base = {(fx, fy): nonzero_element(rng, alg).subst_coeffs({Var.M: L - B})
            for fx in alg.families for fy in alg.families}
    gens = alg.generators()
    return BilinearMap(alg, {(x, y): shift_targets(base[(x.family, y.family)], x.index + y.index)
                             for x in gens for y in gens})


@pytest.mark.parametrize("build, several_per_tag", [
    (lambda: g_component_map(make_catalog("clw", 3), shift=1), False),
    (lambda: random_equivariant_map(make_catalog("clw", 2), 37), True),
], ids=["clw3-g-symbolic", "clw2-random-equivariant"])
def test_orbit_failures_match_the_per_tuple_sweep(build, several_per_tag):
    # The orbit sweep expands the failing family tuples only, sorted by
    # generator position; the failure list equals the per-tuple residual
    # sweep in itertools.product order: the same args, values and order.
    # The random map fails on several family tuples of one tag, whose
    # orbits interleave in that order.
    phi = build()
    assert _is_equivariant(_integral_multiple(phi)[0])
    report = assert_sweep_matches_memo_free(phi)
    failing = {(r.tag, tuple(g.family for g in r.args)) for r in report.failures}
    assert len(failing) >= 3
    tags = [tag for tag, _ in failing]
    assert (len(set(tags)) < len(tags)) == several_per_tag


def test_committed_g_component_map_is_the_failing_control():
    # the map file of the CI hash-seed check of a failing sweep
    clw3 = make_catalog("clw", 3)
    phi = load_map(Path(__file__).resolve().parent / "clw3_g_component_map.json", clw3)
    assert phi == g_component_map(clw3, shift=1)
    report = verify_map(phi)
    assert (report.checked, len(report.failures)) == (1_764, 135)
    assert {r.tag for r in report.failures} == {"def1b", "lem1", "lem2"}


def test_committed_perturbed_g_component_map_takes_the_full_sweep():
    # the map file of the CI hash-seed check of the full sweep: the same
    # g-component with its (L:0, L:0) value moved from G:1 to G:2, so it is
    # not index-equivariant
    clw3 = make_catalog("clw", 3)
    phi = load_map(Path(__file__).resolve().parent / "clw3_perturbed_g_map.json", clw3)
    table = dict(g_component_map(clw3, shift=1).table)
    l0 = clw3.gen("L", 0)
    table[(l0, l0)] = clw3.element({clw3.gen("G", 2): D + 2 * L})
    assert phi == BilinearMap(clw3, table)
    assert not _is_equivariant(phi)
    report = assert_sweep_matches_memo_free(phi)
    assert (report.checked, len(report.failures)) == (1_764, 135)
    assert {r.tag for r in report.failures} == {"def1b", "lem1", "lem2"}


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


def test_sweeps_of_two_maps_keep_their_own_values():
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "inner", t=1)
    psi = g_component_map(clw)
    x, y, z = clw.gen("L", 0), clw.gen("L", 1), clw.gen("L", 0)
    # psi's def1b residual at this tuple is not zero and phi's is; the sweep
    # of one map must not answer for the other, in either order.
    value = residual(psi, "def1b", (x, y, z)).value
    assert not value.is_zero and residual(phi, "def1b", (x, y, z)).is_zero
    for _ in range(2):
        assert verify_map(phi, ["def1b"]).passed
        failures = {r.args: r.value for r in verify_map(psi, ["def1b"]).failures}
        assert failures[(x, y, z)] == value


def test_consecutive_sweeps_do_not_share_entries(monkeypatch):
    # Sweeps of two maps, run in alternation, keep their own values, and
    # each sweep makes every product it needs itself: its second run
    # misses as often as its first, so no entry outlives its sweep.
    clw = make_catalog("clw", 2)
    phi, psi = make_family(clw, "inner", t=1), g_component_map(clw)
    expected = {name: memo_free_sweep(m, TAGS) for name, m in (("phi", phi), ("psi", psi))}
    first = {}
    for _ in range(2):
        for name, m in (("phi", phi), ("psi", psi)):
            reports = []
            misses = count_memo_misses(monkeypatch, lambda: reports.append(verify_map(m, TAGS)))
            assert all(misses) and first.setdefault(name, misses) == misses
            checked, failures = expected[name]
            assert reports[0].checked == checked
            assert [(r.tag, r.args, r.value) for r in reports[0].failures] == \
                [(r.tag, r.args, r.value) for r in failures]
    assert not expected["phi"][1] and expected["psi"][1]


def count_memo_misses(monkeypatch, sweep):
    """(brackets, map evaluations, last steps) made by bimaps during
    sweep(): with a memo, the misses of its three tables."""
    counts = {"bracket": 0, "map_eval": 0, "_combine": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(bimaps, name, counting(name, getattr(bimaps, name)))
    sweep()
    return counts["bracket"], counts["map_eval"], counts["_combine"]


@pytest.mark.parametrize("shift, a, misses", [
    (0, Fraction(9, 5), (63, 24, 20)), (2, Fraction(9, 5), (63, 24, 20)),
    (3, Fraction(-7, 2), (63, 24, 20)), (1, 5, (63, 24, 20)),
    # at a = 1 the map values at index 0 lie at index shift, the brackets
    # at index 0, so the orbit sweep shares no outer bracket between them
    (2, 1, (63, 24, 20)),
], ids=["s0-a9/5", "s2-a9/5", "s3-a-7/2", "s1-a5", "s2-a1"])
def test_identity_keys_evaluate_each_distinct_product_once(monkeypatch, shift, a, misses):
    # The misses of a memo keyed by operand content, on the benchmark's
    # family sweep of CLW(4) over all tags: the map is index-equivariant,
    # so the 36 tuples of the index-0 generators stand for the 5,184, and
    # their last steps take 4, 5, 5 and 6 distinct operand tuples under
    # def1a, def1b, lem1 and lem2.
    phi = make_family(make_catalog("clw", 4), "clw_shift", shift=shift, a=a)
    assert count_memo_misses(monkeypatch, lambda: verify_map(phi, TAGS)) == misses


def test_identity_keys_evaluate_each_distinct_axiom_product_once(monkeypatch):
    # check_axioms of CLW(6) and the def1b control, both index-equivariant:
    # 4 + 8 and 8 representative tuples for 144 + 1,728 and 512
    clw6 = make_catalog("clw", 6)
    assert count_memo_misses(monkeypatch, lambda: check_axioms(clw6)) == (20, 12, 9)
    control = g_component_map(make_catalog("clw", 4), shift=1)
    assert count_memo_misses(monkeypatch, lambda: verify_map(control, ["def1b"])) == \
        (12, 12, 2)


def test_full_sweep_of_a_non_equivariant_map_evaluates_each_distinct_product_once(
        monkeypatch):
    # The benchmark's CLW(4) family with one target index moved takes the
    # full sweep of all 5,184 tuples, through the memo alone
    phi = perturbed(make_family(make_catalog("clw", 4), "clw_shift", shift=2,
                                a=Fraction(9, 5)), "moved")
    assert not _is_equivariant(phi)
    assert count_memo_misses(monkeypatch, lambda: verify_map(phi, TAGS)) == (777, 336, 96)


def family_grid():
    """(algebra, kind, parameters) of every make_family kind on cw and clw,
    m = 2, 3, 4: the shifted bracket at each shift, and the g-component on
    clw at b = -1."""
    for m in (2, 3, 4):
        for alg in (make_catalog("cw", m), make_catalog("clw", m), make_catalog("clw", m, -1)):
            yield alg, "inner", {"t": Fraction(-3, 2)}
            for s in range(m):
                yield alg, "cw_shift", {"shift": s, "a": 2}
                yield alg, "clw_shift", {
                    "shift": s, "a": Fraction(5, 3),
                    "g": 1 if alg.rules() == make_catalog("clw", 1, -1).rules() else 0}


def equivariant_families():
    for alg, kind, params in family_grid():
        yield make_family(alg, kind, **params)


def test_index_equivariance_predicate():
    for phi in equivariant_families():
        assert _is_equivariant(phi)
        for how in ("moved", "scaled", "dropped"):
            assert not _is_equivariant(perturbed(phi, how))
    assert _is_equivariant(BilinearMap.zero(make_catalog("clw", 3)))
    assert _is_equivariant(g_component_map(make_catalog("clw", 3), shift=1))


def with_extra_term(phi, pair):
    """phi with one more target term on pair: D on the first generator the
    value does not reach, so the value keeps its other terms."""
    alg = phi.algebra
    value = phi.entry(*pair)
    extra = next(g for g in alg.generators() if g not in value.terms)
    return BilinearMap(alg, {**phi.table, pair: value + alg.element({extra: D})})


def test_index_equivariance_predicate_refuses_an_extra_target_term():
    # A value with one term more than its shifted family base agrees with
    # the base on every base term, so only the length tells them apart:
    # on the last pair, and on the index-0 pair, whose extra term every
    # other pair of the family pair then lacks.
    for phi in equivariant_families():
        last = phi.pairs()[-1]
        first = tuple(phi.algebra.gen(g.family, 0) for g in last)
        for pair in (last, first):
            assert not _is_equivariant(with_extra_term(phi, pair))


def per_pair_family(alg, t=1, shift=0, a=1, g=0):
    """make_family's table by the per-pair formula: a new Element per pair,
    the bracket value with its targets moved by shift and its coefficients
    times t * a, plus g (d+2l) G_{i+j+shift} on the (L, L) pairs; zero
    values left out."""
    table = {}
    for (gi, gj), value in alg.table.items():
        terms = {alg.gen(gt.family, gt.index + shift): c * (t * a)
                 for gt, c in value.terms.items()}
        if g and gi.family == gj.family == "L":
            terms[alg.gen("G", gi.index + gj.index + shift)] = (D + 2 * L) * g
        table[(gi, gj)] = alg.element(terms)
    return {pair: value for pair, value in table.items() if not value.is_zero}


def assert_one_object_per_source_coefficient(source, result, shift=0):
    """Each coefficient object of source (a table) is one object in result,
    the table scaled with its targets moved by shift, wherever result
    keeps its term."""
    images = {}
    for pair, value in source.items():
        for gt, c in value.terms.items():
            alg = value.algebra
            kept = result[pair].terms.get(alg.gen(gt.family, gt.index + shift)) \
                if pair in result else None
            assert images.setdefault(id(c), kept) is kept


def assert_table_form(phi):
    """The form of every map's table, which the maps built without the
    constructor's checks must keep: the constructor, given the map's
    view, gives the same map; every key is the algebra's own generator
    id; no value is empty and no coefficient is zero."""
    alg = phi.algebra
    assert BilinearMap(alg, phi.table) == phi
    for (gi, gj), terms in phi._table.items():
        assert all(alg.gen(*g) is g for g in (gi, gj, *terms))
        assert terms and all(not c.is_zero for c in terms.values())


# Factors beyond the grid's: t * a = 0 with and without the g-component
# (the clw_g template is a = 0, g = 1), negative ints and Fractions.
FACTOR_CASES = [
    (make_catalog("clw", 2, -1), "clw_shift", {"shift": 1, "a": 0, "g": 1}),
    (make_catalog("cw", 3), "cw_shift", {"shift": 2, "a": 0}),
    (make_catalog("clw", 3), "inner", {"t": -1}),
    (make_catalog("clw", 3), "clw_shift", {"shift": 2, "a": Fraction(-9, 4)}),
    (make_catalog("clw", 2, -1), "clw_shift", {"shift": 1, "a": -3, "g": Fraction(-1, 2)}),
]


def distinct_values(table):
    return len({id(value) for value in table.values()})


def test_scaled_tables_match_the_per_pair_formula():
    # make_family and _integral_multiple scale each coefficient object
    # once; their tables equal the per-pair Element formula, a zero factor
    # leaves no zero term, den * phi has int coefficients only, and the
    # scaled copies of one coefficient object are one object.  They and
    # phi * c keep the table form.  An algebra holds one value object per
    # (family pair, index sum); every table derived from one, scaled,
    # shifted or renamed, holds no more, and maps each distinct
    # coefficient once.
    for alg, kind, params in [*family_grid(), *FACTOR_CASES]:
        m = alg.modulus
        assert len(alg._table) == (len(alg.families) * m) ** 2
        assert distinct_values(alg._table) == len(alg.families) ** 2 * m
        for (gi, gj), value in alg._table.items():
            assert value is alg._table[(alg.gen(gi.family, gi.index + gj.index),
                                        alg.gen(gj.family, 0))]
        phi = make_family(alg, kind, **params)
        derived = [(alg._table, phi._table)]
        for psi in (phi, _integral_multiple(phi)[0],
                    *(phi * c for c in (0, -1, Fraction(7, 3)))):
            assert_table_form(psi)
            derived.append((phi._table, psi._table))
        for owner in (alg, phi):
            for s in (L + M, M):
                derived.append((owner._table, _renamed_table(owner, s)[0]))
        for source, table in derived:
            assert distinct_values(table) <= distinct_values(source)
        for source in (alg._table, phi._table):
            seen = []
            _mapped_table(source, lambda c: seen.append(c) or 2 * c)
            assert len(seen) == len(set(seen)) == \
                len({c for value in source.values() for c in value.values()})
        assert phi.table == per_pair_family(alg, **params)
        assert all(not c.is_zero for value in phi.table.values() for c in value.terms.values())
        assert_one_object_per_source_coefficient(alg.table, phi.table, params.get("shift", 0))
        if params.get("g"):
            assert len({id(value.terms[alg.gen("G", gi.index + gj.index + params["shift"])])
                        for (gi, gj), value in phi.table.items()
                        if gi.family == gj.family == "L"}) == 1
        scaled, den = _integral_multiple(phi)
        assert den == lcm(1, *(x.denominator for value in phi.table.values()
                               for c in value.terms.values() for x in c.terms.values()))
        assert scaled.table == {pair: alg.element({gt: c * den for gt, c in value.terms.items()})
                                for pair, value in phi.table.items()}
        assert all(type(x) is int for value in scaled.table.values()
                   for c in value.terms.values() for x in c.terms.values())
        assert_one_object_per_source_coefficient(phi.table, scaled.table)
        assert (phi * -1).table == {pair: alg.element({gt: -c for gt, c in value.terms.items()})
                                    for pair, value in phi.table.items()}


@pytest.mark.parametrize("algebra", [make_catalog("cw", 3), make_catalog("clw", 2, -1)],
                         ids=["cw3", "clw2-b-1"])
def test_ansatz_maps_keep_the_table_form(algebra, monkeypatch):
    # map_from_vector's maps, and the tagged map of the post-solve re-check
    ansatz = Ansatz(algebra, 1)
    rng = make_rng(33)
    for _ in range(5):
        vector = {k: random_fraction(rng, nonzero=True)
                  for k in sorted(rng.sample(range(ansatz.n_unknowns), 12))}
        assert_table_form(ansatz.map_from_vector(vector))
    assert ansatz.map_from_vector({0: Fraction(0)}).is_zero
    swept = []

    def recording_verify_map(phi, tags):
        swept.append(phi)
        return verify_map(phi, tags)

    monkeypatch.setattr(lcalab.solver, "verify_map", recording_verify_map)
    assert solve_bider(algebra, 2).dimension and len(swept) == 1
    assert_table_form(swept[0])


def test_entry_resolves_its_keys():
    # L:2 is L:0 at m = 2; an unknown family and a float index are refused
    # as the constructor refuses them
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "inner")
    value = clw.element({("L", 0): D + 2 * L})
    assert phi.entry(("L", 2), ("L", 0)) == phi.entry(clw.gen("L", 0), ("L", 4)) == value
    with pytest.raises(AlgebraError, match="unknown family"):
        phi.entry(("X", 0), ("L", 0))
    with pytest.raises(AlgebraError, match="index must be an int"):
        phi.entry(("L", 0.0), ("L", 0))
    assert phi.entry(("G", 0), ("G", 1)).is_zero


def test_zero_maps_and_table_views():
    clw = make_catalog("clw", 2)
    phi = BilinearMap(clw, {(("G", 1), ("L", 0)): clw.element({("G", 1): B * D - L, ("L", 0): 3}),
                            (("L", 0), ("L", 3)): clw.element({("L", 1): D + 2 * L})})
    for zero in (phi - phi, 0 * phi, phi * 0):
        assert zero.is_zero and zero._table == {} and zero == BilinearMap.zero(clw)
    first, second = phi.table, phi.table
    assert first == second and first is not second
    assert all(first[pair].terms is second[pair].terms is phi._table[pair] for pair in first)
    assert repr(phi) == ("BilinearMap((L:0,L:1) -> (d + 2*l)*L:1; "
                         "(G:1,L:0) -> (3)*L:0 + (d*b - l)*G:1)")
    assert repr(BilinearMap.zero(clw)) == "BilinearMap(0)"


def unit_value_map():
    """phi(L, L) = L on Virasoro: a map value equal to a generator element."""
    vir = make_catalog("vir")
    gid = vir.gen("L", 0)
    return BilinearMap(vir, {(gid, gid): vir.element({gid: 1})})


@pytest.mark.parametrize("build", [
    unit_value_map,
    lambda: oracle_maps(make_catalog("clw", 2))[1],
    lambda: make_family(make_catalog("clw", 2), "clw_shift", shift=1, a=1),
    lambda: make_family(make_catalog("cw", 3), "cw_shift", shift=2, a=Fraction(-4, 3)),
], ids=["vir-unit-value", "clw2-random", "clw2-shift-a1", "cw3-shift"])
def test_identity_keys_share_what_content_keys_share(monkeypatch, build):
    # No kernel call of a sweep repeats the operand contents of an earlier
    # call, tuple(element.terms.items()) for an element (map_eval's first
    # argument is the sweep's one map): identity keys miss only where
    # content keys would.
    phi = build()
    calls = []

    def content(arg):
        if isinstance(arg, Element):
            return tuple(arg.terms.items())
        return id(arg) if isinstance(arg, BilinearMap) else arg

    def recording(name, fn):
        def wrapper(*args):
            calls.append((name,) + tuple(map(content, args)))
            return fn(*args)
        return wrapper

    for name in ("bracket", "map_eval", "_combine"):
        monkeypatch.setattr(bimaps, name, recording(name, getattr(bimaps, name)))
    verify_map(phi, TAGS)
    assert calls and len(set(calls)) == len(calls)


def test_memo_answers_fresh_operands_like_the_memo_free_kernels():
    # Operands are built afresh for every call, as a sweep builds its
    # values, and pass through the memo's intern table, as a sweep's
    # values do, with a collection after each round; spectral parameters
    # are the module's constants.  Each cached kernel answers as the
    # memo-free one, and equal results are one interned object.
    clw = make_catalog("clw", 2)
    phi = make_family(clw, "clw_shift", shift=1, a=Fraction(-9, 4)) + g_component_map(clw)
    intern, cached = _sweep_memo()
    l0, g1 = clw.gen("L", 0), clw.gen("G", 1)
    contents = [{l0: D + 1}, {g1: D * D - 3 * B}, {l0: 2 * D, g1: M}, {g1: D * L - 1}]

    def fresh(n):
        return None if n is None else clw.element(contents[n])

    def interned(n):
        return None if n is None else intern(fresh(n))

    spectrals = (Var.L, Var.M, bimaps._L_PLUS_M, bimaps._M_PLUS_G)
    evaluate = partial(map_eval, phi)
    kernels = ((cached(bracket), bracket), (cached(evaluate), evaluate))
    first = {}
    for _ in range(2):
        for i, j, k in itertools.product(range(3), range(3), range(4)):
            for kind, (memoized, plain) in enumerate(kernels):
                got = memoized(interned(i), interned(j), spectrals[k])
                assert got == plain(fresh(i), fresh(j), spectrals[k])
                assert first.setdefault((kind, i, j, k), got) is got
                assert intern(clw.element(dict(got.terms))) is got
            gc.collect()
    # The last steps of the four identities, written out: _combine, and
    # the memo's cached last step of each tag, must answer each tag with
    # its own step and sign.
    steps = {"def1a": lambda a, b, c: a + b.subst_coeffs({Var.L: -D - L}),
             "def1b": lambda a, b, c: a - b - c,
             "lem1": lambda a, b, c: a - b + c,
             "lem2": lambda a, b, c: a - b}
    last = {tag: cached(partial(bimaps._combine, tag)) for tag in TAGS}
    for _ in range(2):
        for tag, ijk in itertools.product(TAGS, itertools.product(range(4), repeat=3)):
            ops = ijk if tag in ("def1b", "lem1") else ijk[:2] + (None,)
            expected = steps[tag](*map(fresh, ijk))
            assert bimaps._combine(tag, *map(fresh, ops)) == expected
            got = last[tag](*map(interned, ops))
            assert got == expected
            assert first.setdefault((tag, ops), got) is got
        gc.collect()


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

