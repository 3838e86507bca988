"""Fuzzing of the input boundary: only the documented exception escapes.

parse_poly may raise only ParseError, algebra_from_dict only AlgebraError
and map_from_dict only MapError, whatever the input; anything else (a
RecursionError, a TypeError from an unexpected JSON type) would surface
in the CLI as an internal error instead of a usage error.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lcalab import (  # noqa: E402
    AlgebraError,
    MapError,
    ParseError,
    algebra_from_dict,
    make_catalog,
    map_from_dict,
    parse_poly,
)

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
