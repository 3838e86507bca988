"""CLI contract tests: verbs, exit codes, report formats, round-trips."""

import gc
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lcalab.cli
import lcalab.solver
from lcalab import Ansatz, ConstraintSystem, make_catalog, make_family, map_to_dict
from lcalab.cli import main
from lcalab.solver import _rref


@pytest.fixture
def inner_map_file(tmp_path):
    path = tmp_path / "inner.json"
    path.write_text(json.dumps(map_to_dict(make_family(make_catalog("vir"), "inner", t=1))))
    return str(path)


@pytest.fixture
def tampered_algebra_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "BadVir", "modulus": 1, "families": ["L"], "b": "symbolic",
        "rules": [{"left": "L", "right": "L", "target": "L", "coeff": "d + l"}],
    }))
    return str(path)


SCHRODINGER_VIRASORO = str(Path(__file__).resolve().parent / "schrodinger_virasoro.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check-axioms -----------------------------------------------------------------

def test_check_axioms_vir(capsys):
    code, out, _ = run(capsys, "check-axioms", "--catalog", "vir")
    assert code == 0
    assert "PASS" in out


def test_check_axioms_clw_symbolic(capsys):
    code, out, _ = run(capsys, "check-axioms", "--catalog", "clw", "--m", "2",
                       "--b", "symbolic")
    assert code == 0
    assert "PASS" in out


def test_check_axioms_schrodinger_virasoro(capsys):
    code, out, err = run(capsys, "check-axioms", "--algebra", SCHRODINGER_VIRASORO)
    assert (code, err) == (0, "")
    assert out.endswith("PASS\n")


def test_check_axioms_json(capsys):
    code, out, _ = run(capsys, "check-axioms", "--catalog", "cw", "--m", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["checked"] == {"skew": 9, "jacobi": 27}


def test_check_axioms_failure_is_exit_1(capsys, tampered_algebra_file):
    code, out, _ = run(capsys, "check-axioms", "--algebra", tampered_algebra_file)
    assert code == 1
    # the failing residual is printed in canonical form
    assert "(d)*L:0" in out


# The check-axioms reports below are pinned byte for byte.
PINNED_AXIOM_REPORTS = {
    "tampered": (1, {
        "algebra": "BadVir",
        "passed": False,
        "checked": {"skew": 1, "jacobi": 1},
        "failures": [
            {"identity": "skew", "args": ["L:0", "L:0"], "residual": "(d)*L:0"},
            {"identity": "jacobi", "args": ["L:0", "L:0", "L:0"],
             "residual": "(d*l + l*l + l*m)*L:0"},
        ],
    }, "algebra BadVir\n"
       "skew residuals: 1 checked\n"
       "jacobi residuals: 1 checked\n"
       "FAIL skew (L:0, L:0): (d)*L:0\n"
       "FAIL jacobi (L:0, L:0, L:0): (d*l + l*l + l*m)*L:0\n"
       "FAIL\n"),
    "clw2": (0, {
        "algebra": "CLW(m=2, b=symbolic)",
        "passed": True,
        "checked": {"skew": 16, "jacobi": 64},
        "failures": [],
    }, "algebra CLW(m=2, b=symbolic)\n"
       "skew residuals: 16 checked\n"
       "jacobi residuals: 64 checked\n"
       "PASS\n"),
}


@pytest.mark.parametrize("case", sorted(PINNED_AXIOM_REPORTS))
def test_check_axioms_output_is_pinned(capsys, tampered_algebra_file, case):
    source = (["--algebra", tampered_algebra_file] if case == "tampered"
              else ["--catalog", "clw", "--m", "2"])
    expected_code, expected_json, expected_text = PINNED_AXIOM_REPORTS[case]
    assert run(capsys, "check-axioms", *source) == (expected_code, expected_text, "")
    assert run(capsys, "check-axioms", *source, "--format", "json") == \
        (expected_code, json.dumps(expected_json, indent=2) + "\n", "")


# -- verify-family ------------------------------------------------------------------

def test_verify_family_cw_shift(capsys):
    code, out, _ = run(capsys, "verify-family", "--catalog", "cw", "--m", "3",
                       "--family", "cw", "--shift", "1", "--a", "1", "--eq", "all")
    assert code == 0
    assert "PASS" in out


def test_verify_family_clw_g_at_bad_b_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-family", "--catalog", "clw", "--m", "1",
                       "--b", "0", "--family", "clw", "--g", "1")
    assert code == 2
    assert "--g" in err


@pytest.mark.parametrize("source", [
    ["--algebra", SCHRODINGER_VIRASORO],
    ["--catalog", "clw", "--m", "2", "--b=-1"],
], ids=["schrodinger-virasoro", "clw2-bm1"])
def test_verify_family_cw_is_the_shifted_bracket_on_any_table(capsys, source):
    code, out, err = run(capsys, "verify-family", *source, "--family", "cw",
                         "--shift", "1", "--eq", "all")
    assert (code, err) == (0, "")
    assert out.endswith("PASS\n")


def test_verify_family_g_on_the_inhomogeneous_table_is_usage_error(capsys):
    # b = -1, but [L_l G] has a constant term: the g-component would fail def1b
    code, out, err = run(capsys, "verify-family", "--algebra", INHOMOGENEOUS,
                         "--family", "clw", "--a", "0", "--g", "1")
    assert (code, out) == (2, "")
    assert err == ("lcalab: error: --family/--shift/--t/--a/--g: the g-component "
                   "exists only on the CLW table at b = -1\n")


@pytest.mark.parametrize("argv, fragment", [
    (["--catalog", "clw", "--m", "2", "--family", "inner", "--shift", "1"],
     "inner takes no shift"),
    (["--catalog", "clw", "--m", "2", "--b=-1", "--family", "inner", "--g", "1"],
     "inner takes no g"),
    (["--catalog", "cw", "--m", "2", "--family", "cw", "--t", "5", "--g", "3"],
     "cw_shift takes no t"),
    (["--catalog", "clw", "--m", "2", "--family", "clw", "--t", "2"],
     "clw_shift takes no t"),
], ids=["inner-shift", "inner-g", "cw-t-g", "clw-t"])
def test_verify_family_refuses_parameters_the_family_does_not_take(capsys, argv, fragment):
    code, out, err = run(capsys, "verify-family", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"lcalab: error: --family/--shift/--t/--a/--g: {fragment} (got ")
    assert err.count("\n") == 1


def test_verify_family_accepts_defaults_of_parameters_it_does_not_take(capsys):
    code, out, _ = run(capsys, "verify-family", "--catalog", "cw", "--m", "2",
                       "--family", "inner", "--shift", "0", "--a", "1", "--g", "0")
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_family_negative_rational_equals_form(capsys):
    code, _, _ = run(capsys, "verify-family", "--catalog", "clw", "--m", "2",
                     "--b=-1", "--family", "clw", "--a=0", "--g=-2/3")
    assert code == 0


@pytest.mark.parametrize("argv, flag, value", [
    (["check-axioms", "--catalog", "clw", "--m", "2"], "--b", "-3/2"),
    (["verify-family", "--catalog", "vir", "--family", "inner"], "--t", "-2/3"),
    (["verify-family", "--catalog", "clw", "--m", "3", "--b=2/3", "--family", "cw",
      "--shift", "2"], "--a", "-7/4"),
    (["verify-family", "--catalog", "clw", "--m", "2", "--b=-1", "--family", "clw",
      "--a", "0"], "--g", "-2/3"),
], ids=["b", "t", "a", "g"])
def test_negative_rational_as_separate_argument(capsys, argv, flag, value):
    # argparse reads -7/4 as an option; the separate form must still mean --a=-7/4
    joined = run(capsys, *argv, f"{flag}={value}", "--format", "json")
    assert joined[0] == 0
    assert run(capsys, *argv, flag, value, "--format", "json") == joined


# -- residual -----------------------------------------------------------------------

def test_residual_inner_map(capsys, inner_map_file):
    code, out, _ = run(capsys, "residual", "--catalog", "vir",
                       "--map", inner_map_file, "--eq", "def1b")
    assert code == 0
    assert "PASS" in out


# The inner map of CLW(m=1), its coefficients written with b.
INNER_CLW_WITH_B = [
    {"left": "L:0", "right": "L:0", "value": [{"gen": "L:0", "coeff": "d + 2*l"}]},
    {"left": "L:0", "right": "G:0", "value": [{"gen": "G:0", "coeff": "d + l - b*l"}]},
    {"left": "G:0", "right": "L:0", "value": [{"gen": "G:0", "coeff": "-(b*d + (b-1)*l)"}]},
]


@pytest.mark.parametrize("b", ["-1", "symbolic"])
def test_map_file_takes_the_algebra_b(capsys, tmp_path, b):
    # at a numeric b, the b of a map file is the algebra's b, as in its
    # rules: the file reads as the inner map written out at that b
    algebra = make_catalog("clw", 1, None if b == "symbolic" else Fraction(b))
    with_b, inner = tmp_path / "with_b.json", tmp_path / "inner.json"
    with_b.write_text(json.dumps({"algebra": algebra.name, "entries": INNER_CLW_WITH_B}))
    inner.write_text(json.dumps(map_to_dict(make_family(algebra, "inner", t=1))))
    argv = ["residual", "--catalog", "clw", f"--b={b}", "--eq", "all", "--map"]
    code, out, err = run(capsys, *argv, str(with_b))
    assert (code, err) == (0, "") and out.endswith("PASS\n")
    assert run(capsys, *argv, str(inner)) == (code, out, err)


def test_residual_requires_map(capsys):
    code, _, _ = run(capsys, "residual", "--catalog", "vir")
    assert code == 2


def test_residual_missing_map_file(capsys):
    code, _, err = run(capsys, "residual", "--catalog", "vir", "--map", "/nope.json")
    assert code == 2
    assert "error" in err


# -- solve-bider / match ---------------------------------------------------------------

def test_solve_bider_vir_json(capsys):
    code, out, _ = run(capsys, "solve-bider", "--catalog", "vir",
                       "--degree", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 1
    assert report["unmatched"] == []


def test_solve_bider_emitted_basis_feeds_residual(capsys, tmp_path):
    # JSON round-trip: basis maps are valid --map inputs unchanged, also
    # when a family name holds ":" (generator "A:B:0")
    algebra_path = tmp_path / "colon.json"
    algebra_path.write_text(json.dumps({
        "name": "CW-colon", "modulus": 2, "families": ["A:B"], "b": "symbolic",
        "rules": [{"left": "A:B", "right": "A:B", "target": "A:B", "coeff": "d + 2*l"}]}))
    for source in (["--catalog", "cw", "--m", "2"], ["--algebra", str(algebra_path)]):
        code, out, _ = run(capsys, "solve-bider", *source, "--degree", "2",
                           "--format", "json")
        assert code == 0
        basis = json.loads(out)["basis"]
        assert len(basis) == 2
        for i, phi in enumerate(basis):
            path = tmp_path / f"basis{i}.json"
            path.write_text(json.dumps(phi))
            code, out, _ = run(capsys, "residual", *source, "--map", str(path),
                               "--eq", "all")
            assert code == 0
            assert "PASS" in out


def test_solve_bider_symbolic_b_is_usage_error(capsys):
    code, _, err = run(capsys, "solve-bider", "--catalog", "clw", "--m", "1",
                       "--degree", "2")
    assert code == 2
    assert "numeric b" in err


def test_solve_bider_rejects_lem2(capsys):
    code, _, _ = run(capsys, "solve-bider", "--catalog", "vir", "--degree", "1",
                     "--eq", "lem2")
    assert code == 2


def test_match_pass(capsys):
    code, out, _ = run(capsys, "match", "--catalog", "cw", "--m", "2", "--degree", "2")
    assert code == 0
    assert "cw_shift(s=0)" in out and "cw_shift(s=1)" in out


def test_match_fails_without_templates(capsys, tmp_path):
    # a zero-bracket algebra has skew-only solutions, and its one template,
    # the shifted bracket, is zero
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "name": "Flat", "modulus": 1, "families": ["X"], "b": "symbolic",
        "rules": [],
    }))
    code, out, _ = run(capsys, "match", "--algebra", str(path), "--degree", "1")
    assert code == 1
    assert "UNMATCHED" in out


def test_match_schrodinger_virasoro(capsys):
    # beyond the paper: every solution is twice a shifted bracket
    code, out, err = run(capsys, "match", "--algebra", SCHRODINGER_VIRASORO, "--degree", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == [
        "unknowns 4374  rows 100764  dimension 3",
        "basis[0] = 2*cw_shift(s=2)",
        "basis[1] = 2*cw_shift(s=0)",
        "basis[2] = 2*cw_shift(s=1)",
    ]


def test_match_unmatched_report_is_pinned(capsys):
    # def1a alone admits the degree-2 map d*d + 2*d*l, which no template spans
    argv = ["match", "--catalog", "vir", "--degree", "2", "--eq", "def1a"]
    inner = {"algebra": "Vir", "entries": [{"left": "L:0", "right": "L:0", "value": [
        {"gen": "L:0", "coeff": "d + 2*l"}]}]}
    extra = {"algebra": "Vir", "entries": [{"left": "L:0", "right": "L:0", "value": [
        {"gen": "L:0", "coeff": "d*d + 2*d*l"}]}]}
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "algebra": "Vir", "degree": 2, "tags": ["def1a"], "unknowns": 6, "rows": 5,
        "dimension": 2, "basis": [inner, extra],
        "matched": [{"basis": 0, "combination": {"cw_shift(s=0)": "1"}}],
        "unmatched": [{"basis": 1, "map": extra}],
    }
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert ('basis[1] UNMATCHED: [{"left": "L:0", "right": "L:0", "value": '
            '[{"gen": "L:0", "coeff": "d*d + 2*d*l"}]}]') in out.splitlines()


@pytest.mark.parametrize("fmt, maps", [("text", 1), ("json", 2)])
def test_match_builds_no_map_per_lifted_vector(capsys, monkeypatch, fmt, maps):
    # CW(m=12) has one class-0 basis vector, lifted onto twelve classes: the
    # re-check builds its one tagged map, the JSON report the class-0 map,
    # and the text report, which prints no map of a matched vector, none
    calls = []
    build = Ansatz._map

    def counting_map(self, terms):
        calls.append(1)
        return build(self, terms)

    monkeypatch.setattr(Ansatz, "_map", counting_map)
    code, out, err = run(capsys, "match", "--catalog", "cw", "--m", "12", "--degree", "2",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert "dimension 12" in out or '"dimension": 12' in out
    assert len(calls) == maps


INHOMOGENEOUS = str(Path(__file__).resolve().parents[1] / "bench" / "inhomogeneous_clw.json")


@pytest.mark.parametrize("verb", ["solve-bider", "match"])
@pytest.mark.parametrize("source", [
    ["--catalog", "vir"],
    ["--catalog", "clw", "--m", "2", "--b=-1"],
    ["--algebra", INHOMOGENEOUS],
], ids=["vir", "clw2-bm1", "inhomogeneous-clw"])
def test_degree_zero_leaves_out_templates_above_the_ansatz(capsys, verb, source):
    # Every family template has degree 1, so none fits a degree-0 ansatz;
    # the solution space is 0 there, which is a full match.
    code, out, err = run(capsys, verb, *source, "--degree", "0", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["dimension"], report["basis"]) == (0, [])
    assert (report["matched"], report["unmatched"]) == ([], [])


# -- usage errors -------------------------------------------------------------------

def test_no_algebra_source(capsys):
    code, _, err = run(capsys, "check-axioms")
    assert code == 2
    assert "--catalog" in err


def test_both_algebra_sources(capsys, tampered_algebra_file):
    code, _, _ = run(capsys, "check-axioms", "--catalog", "vir",
                     "--algebra", tampered_algebra_file)
    assert code == 2


@pytest.mark.parametrize("flag", ["--m=1", "--m=3", "--b=-1"])
def test_catalog_flags_with_algebra_file_are_usage_errors(capsys, flag):
    # --m has no default of its own, so an explicit --m 1 is refused too
    code, out, err = run(capsys, "solve-bider", "--algebra", INHOMOGENEOUS,
                         flag, "--degree", "1")
    assert out == ""
    assert_one_line_error(code, err, f"{flag[:3]} only applies to --catalog algebras")


def test_b_on_non_clw(capsys):
    code, _, err = run(capsys, "check-axioms", "--catalog", "vir", "--b", "1")
    assert code == 2
    assert "--b" in err


def test_bad_rational(capsys):
    code, _, err = run(capsys, "check-axioms", "--catalog", "clw", "--b", "oops")
    assert code == 2
    assert "--b" in err


# Fraction() would accept exponent notation and spend ~9 s building the
# ten-million-digit integer 1e10000000; only the grammar's constants pass.
HUGE_EXPONENT = "1e10000000"


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--catalog", "clw", f"--b={HUGE_EXPONENT}"],
    ["verify-family", "--catalog", "vir", "--family", "inner", f"--t={HUGE_EXPONENT}"],
    ["verify-family", "--catalog", "clw", "--family", "clw", f"--a={HUGE_EXPONENT}"],
    ["verify-family", "--catalog", "clw", "--b=-1", "--family", "clw",
     f"--g={HUGE_EXPONENT}"],
    ["check-axioms", "--catalog", "clw", "--b=1.5"],
    ["check-axioms", "--catalog", "clw", "--b=3/-2"],
], ids=["b", "t", "a", "g", "decimal", "negative-denominator"])
def test_rational_flag_rejects_non_grammar_text(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert out == ""
    assert_one_line_error(code, err, "not a rational number")
    assert argv[-1].split("=")[0] in err


def test_unknown_verb(capsys):
    assert run(capsys, "explode")[0] == 2


def test_missing_degree(capsys):
    assert run(capsys, "solve-bider", "--catalog", "vir")[0] == 2


VIR_RULES = [{"left": "L", "right": "L", "target": "L", "coeff": "d + 2*l"}]


def assert_one_line_error(code, err, fragment):
    assert code == 2
    assert err.startswith("lcalab: error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("text, fragment", [
    ("{{{", "invalid JSON"),
    (json.dumps({"name": "V", "modulus": 1, "families": ["L"], "b": 0.1,
                 "rules": VIR_RULES}), "bad b value 0.1"),
    (json.dumps({"name": "V", "modulus": 1, "families": ["L"], "b": True,
                 "rules": VIR_RULES}), "bad b value True"),
    (json.dumps({"name": "V", "modulus": True, "families": ["L"],
                 "rules": VIR_RULES}), "modulus must be a positive integer"),
    (json.dumps({"name": "V", "modulus": 1, "families": ["L"],
                 "rules": [dict(VIR_RULES[0], coeff="(" * 3000 + "d" + ")" * 3000)]}),
     "nested deeper than"),
    (json.dumps({"name": "V", "modulus": 1, "families": ["L"], "b": HUGE_EXPONENT,
                 "rules": VIR_RULES}), f"bad b value '{HUGE_EXPONENT}'"),
    ('{"name": "V", "modulus": 1, "families": ["L"], "b": 1' + "0" * 5000 + "}",
     "invalid JSON"),
    (json.dumps({"name": "V", "modulus": 2000, "families": ["L"], "rules": VIR_RULES}),
     "exceeds the cap of 40000"),
    (json.dumps({"name": "V", "modulus": 1, "families": ["L"],
                 "rules": [dict(VIR_RULES[0], target=None)]}),
     "rule (L,L): a null target needs a zero coefficient"),
], ids=["garbage", "float-b", "bool-b", "bool-modulus", "deep-parens", "exponent-b",
        "huge-int", "huge-modulus", "null-target-nonzero-coeff"])
def test_malformed_algebra_file(capsys, tmp_path, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    start = time.perf_counter()
    code, _, err = run(capsys, "check-axioms", "--algebra", str(path))
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, err, fragment)


def test_catalog_modulus_over_table_cap_is_usage_error(capsys):
    # 16 million generator pairs; the cap refuses the table before it is built.
    start = time.perf_counter()
    code, out, err = run(capsys, "check-axioms", "--catalog", "clw", "--m", "2000")
    assert time.perf_counter() - start < 1.0
    assert out == ""
    assert_one_line_error(code, err, "exceeds the cap of 40000")


@pytest.mark.parametrize("argv, fragment", [
    # 40^3 * 6 = 384,000 unknowns against the solver's cap
    (["solve-bider", "--catalog", "clw", "--m", "20", "--degree", "2"],
     "ansatz of 384000 unknowns (40 generators, degree 2) exceeds the cap of 50000"),
    # 200^2 + 200^3 residuals, with a table the table cap admits
    (["check-axioms", "--catalog", "clw", "--m", "100"],
     "axiom check of 8040000 residuals (200 generators) exceeds the cap of 1000000"),
], ids=["solve-bider-unknowns", "check-axioms-residuals"])
def test_run_over_budget_is_usage_error(capsys, argv, fragment):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert out == ""
    assert_one_line_error(code, err, fragment)


@pytest.mark.parametrize("option", ["--algebra", "--map"])
def test_undecodable_file_is_usage_error(capsys, tmp_path, option):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    argv = (["check-axioms", "--algebra", str(path)] if option == "--algebra"
            else ["residual", "--catalog", "vir", "--map", str(path)])
    code, _, err = run(capsys, *argv)
    assert_one_line_error(code, err, "cannot read")


@pytest.mark.parametrize("entry, fragment", [
    ({"left": "L:0", "right": "L:0", "value": [{"gen": "L:0", "coeff": 3}]},
     "coeff must be a string"),
    ({"left": "L:0", "right": "L:0", "value": 3}, "value must be a list"),
    ({"left": 0, "right": "L:0", "value": []}, "bad generator 0"),
    ({"left": "L:1_0", "right": "L:0", "value": []}, "bad generator index in 'L:1_0'"),
    ({"left": "L:0", "right": "L:+1", "value": []}, "bad generator index in 'L:+1'"),
    ({"left": "L:0", "right": "L:0", "value": [{"gen": "L: 1", "coeff": "d"}]},
     "bad generator index in 'L: 1'"),
    ({"left": "L:\u0661", "right": "L:0", "value": []}, "bad generator index"),
], ids=["numeric-coeff", "numeric-value", "numeric-left", "underscore-index",
        "plus-index", "blank-index", "arabic-indic-index"])
def test_malformed_map_file(capsys, tmp_path, entry, fragment):
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps({"algebra": "Vir", "entries": [entry]}))
    code, _, err = run(capsys, "residual", "--catalog", "vir", "--map", str(path))
    assert_one_line_error(code, err, fragment)


def assert_internal_error(code, err, fragment):
    assert code == 3
    assert err.startswith("lcalab: internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert fragment in err


def test_failed_post_solve_check_is_internal_error(capsys, monkeypatch):
    # assembly that drops every row leaves basis vectors that fail the
    # solved identities; the re-check must blame the solver, not the user
    def assemble_dropping_rows(ansatz, tags, **options):
        system = assemble(ansatz, tags, **options)
        return ConstraintSystem(ansatz, system.tags, 0, _rref([]))

    assemble = lcalab.solver.assemble
    monkeypatch.setattr(lcalab.solver, "assemble", assemble_dropping_rows)
    code, out, err = run(capsys, "match", "--catalog", "vir", "--degree", "1")
    assert out == ""
    assert_internal_error(code, err, "internal check failed")


def test_broken_basis_vector_is_internal_error(capsys, monkeypatch):
    # a lift one entry short breaks the lifted basis vectors, which the
    # lift check reports as one line naming the lowest of them
    def lift_dropping_an_entry(self, entries, s):
        vector = lift(self, entries, s)
        if s == 1:
            del vector[self.shift(min(entries), s)]
        return vector

    lift = Ansatz.lift
    monkeypatch.setattr(Ansatz, "lift", lift_dropping_an_entry)
    code, out, err = run(capsys, "match", "--catalog", "clw", "--m", "2", "--b=-1",
                         "--degree", "1")
    assert out == ""
    assert_internal_error(code, err, "internal check failed: basis vector ")


def test_lift_onto_the_wrong_class_is_internal_error(capsys, monkeypatch):
    # a lift that returns sigma_0 for every s reports valid solutions, each
    # class-0 vector m times; only the lift check can refuse them
    monkeypatch.setattr(Ansatz, "lift", lambda self, entries, s: dict(entries))
    code, out, err = run(capsys, "match", "--catalog", "clw", "--m", "3", "--b=-1",
                         "--degree", "2")
    assert out == ""
    assert_internal_error(code, err, "is not the index shift of a class-0 basis vector")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def crash(algebra):
        raise RuntimeError("boom\non two lines")

    monkeypatch.setattr(lcalab.cli, "check_axioms", crash)
    code, _, err = run(capsys, "check-axioms", "--catalog", "vir")
    assert_internal_error(code, err, "RuntimeError: boom on two lines")


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-axioms", "--catalog", "vir",
                       "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["passed"] is True


def test_repeated_runs_leave_no_parser_garbage(capsys):
    # main() reuses one parser: a parser built per call is a web of
    # reference cycles, a few hundred objects left to the cyclic
    # collector after every call
    argv = ("check-axioms", "--catalog", "clw", "--m", "2", "--format", "json")
    first = run(capsys, *argv)
    gc.collect()
    assert run(capsys, *argv) == first
    assert gc.collect() < 100
    assert lcalab.cli.build_parser() is lcalab.cli.build_parser()
