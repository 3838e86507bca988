"""Unit tests for the exact polynomial kernel."""

from fractions import Fraction

import pytest

from lcalab import ParseError, Poly, Var, parse_poly, parse_rational
from lcalab.poly import B, D, L, M, UNIT_MONOMIAL

from randgen import make_rng, random_assignment, random_poly


def mono(d=0, l=0, m=0, g=0, b=0):
    return (d, l, m, g, b)


# -- arithmetic -------------------------------------------------------------

def test_additive_inverse():
    p = D + 2 * L
    assert (p + (-p)).is_zero


def test_multiplicative_identity():
    p = D + 2 * L
    assert p * Poly.one() == p
    assert Poly.one() * p == p


def test_mul_hand_expansion():
    # (d + l + 2m)(d + 2l) expanded by hand.
    expected = Poly({
        mono(d=2): 1,
        mono(d=1, l=1): 3,
        mono(d=1, m=1): 2,
        mono(l=2): 2,
        mono(l=1, m=1): 4,
    })
    assert (D + L + 2 * M) * (D + 2 * L) == expected


def test_scale_by_rational():
    p = D + 2 * L
    assert Fraction(1, 2) * p == Poly({mono(d=1): Fraction(1, 2), mono(l=1): 1})
    assert p * 0 == Poly.zero()


def test_pow():
    assert (D + L) ** 2 == D * D + 2 * D * L + L * L
    assert (D + L) ** 0 == Poly.one()


# -- substitution -----------------------------------------------------------

def test_subst_skew_move():
    assert (D + 2 * L).subst({Var.L: -D - L}) == -D - 2 * L


def test_subst_identity():
    p = (D + 2 * L) * (M + 3)
    assert p.subst({}) == p
    assert p.subst({Var.L: L}) == p


def test_subst_hand_expansion():
    assert (L * M).subst({Var.L: L + M}) == L * M + M * M


def test_subst_is_simultaneous():
    # l and m swap in one step, not sequentially.
    p = L + 2 * M
    assert p.subst({Var.L: M, Var.M: L}) == M + 2 * L


def test_double_skew_is_identity():
    rng = make_rng(1)
    move = {Var.L: -D - L}
    for _ in range(500):
        p = random_poly(rng)
        assert p.subst(move).subst(move) == p


def test_subst_homomorphism_smoke():
    rng = make_rng(2)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        assignment = random_assignment(rng)
        assert (p * q).subst(assignment) == p.subst(assignment) * q.subst(assignment)
        assert (p + q).subst(assignment) == p.subst(assignment) + q.subst(assignment)


# -- parsing and printing ------------------------------------------------------

def test_parse_basic():
    assert parse_poly("d + 2*l") == D + 2 * L


def test_parse_zero():
    assert parse_poly("0").is_zero


def test_parse_negated_group():
    assert parse_poly("-(b*d + (b-1)*l)") == -(B * D + (B - 1) * L)


def test_parse_rational_coeff():
    assert parse_poly("1/2*d - 3/4") == Fraction(1, 2) * D - Fraction(3, 4)


def test_parse_whitespace_insignificant():
    assert parse_poly("  d+ 2 * l ") == D + 2 * L


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("d + ")
    assert exc.value.position == 4


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x'"):
        parse_poly("d + x")
    with pytest.raises(ParseError, match="unknown identifier 'dd'"):
        parse_poly("dd")


def test_parse_division_outside_constant():
    with pytest.raises(ParseError, match="division"):
        parse_poly("d/2")
    with pytest.raises(ParseError, match="division"):
        parse_poly("(d + 1)/2")


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="positive"):
        parse_poly("1/0")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("d + 2*l )")


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-3/2", Fraction(-3, 2)), ("6/3", 2), (" - 4 ", -4), ("0/5", 0),
])
def test_parse_rational_accepts_signed_constants(text, value):
    result = parse_rational(text)
    assert result == value
    assert type(result) is (int if value.denominator == 1 else Fraction)


@pytest.mark.parametrize("text", [
    "1e10000000", "1e3", "1.5", ".5", "--1", "-", "", "+3", "3/0", "3/-2", "0x10",
    "1_000", "\u0663", "inf", "b", "7 7", "(7)", "2*3",
])
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_str_canonical_order():
    # graded lexicographic, d > l > m > g > b
    assert str(D + 2 * L) == "d + 2*l"
    assert str(-D - 2 * L) == "-d - 2*l"
    assert str(2 * B * D - D) == "2*d*b - d"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-5, 3))) == "-5/3"


def test_parse_print_roundtrip():
    rng = make_rng(4)
    for _ in range(500):
        p = random_poly(rng, max_terms=4)
        assert parse_poly(str(p)) == p


# -- structure ----------------------------------------------------------------

def test_canonical_no_zero_terms():
    p = Poly({mono(d=1): 0, mono(l=1): 2})
    assert p.terms == {mono(l=1): Fraction(2)}


def test_variables_and_degree():
    p = D * D + L * B
    assert p.variables() == (Var.D, Var.L, Var.B)


def test_unit_monomial_constant():
    assert Poly.one().terms == {UNIT_MONOMIAL: Fraction(1)}
