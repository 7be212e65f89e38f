import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from eiscoeff.symalg import (
    Factor,
    FormulaExpression,
    LinearForm,
    Symbol,
    canonicalize,
    expand_c_factors,
    formula_to_json,
    lf,
    parse_formula_json,
    render,
    render_linear_form,
)

S = Symbol("s", kind="s_variable")
T = Symbol("t", imaginary=True)


def test_add_cancellation():
    a = LinearForm.build(0, {S: 1, T: 1})  # s+it
    b = LinearForm.build(0, {S: 1, T: -1})  # s-it
    assert a + b == LinearForm.build(0, {S: 2})


def test_add_constant():
    s2, s3 = Symbol("s2", kind="s_variable"), Symbol("s3", kind="s_variable")
    a = LinearForm.build(0, {s2: 1, s3: 1})
    assert a + 1 == LinearForm.build(1, {s2: 1, s3: 1})
    assert render_linear_form(a + 1) == "s2+s3+1"


def test_scale_zero():
    assert LinearForm.build(0, {S: 1}) * 0 == LinearForm()


def test_substitute():
    t2 = Symbol("t2", imaginary=True)
    t1 = Symbol("t1", imaginary=True)
    t3 = Symbol("t3", imaginary=True)
    form = LinearForm.build(1, {S: 1, t2: 1})
    sub = form.substitute({t2: LinearForm.build(0, {t1: -1, t3: -1})})
    assert sub == LinearForm.build(1, {S: 1, t1: -1, t3: -1})


def test_evaluate_imaginary():
    form = LinearForm.build(1, {S: 1, T: 1})
    val = form.evaluate({"s": 0.5, "t": 2.0})
    assert val == pytest.approx(1.5 + 2j)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10)
names = st.sampled_from(["s", "s2", "s3", "t", "t'", "v", "z1"])


@st.composite
def linear_forms(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        sym = Symbol(draw(names))
        terms[sym] = draw(rationals)
    return LinearForm.build(draw(rationals), terms)


@given(linear_forms(), linear_forms(), linear_forms())
def test_lf_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(linear_forms(), rationals, rationals)
def test_lf_scale_distributes(a, p, q):
    assert a * (p + q) == a * p + a * q


def _zfac(arg, exp=-1):
    return Factor("zeta_star", arg, exponent=Q(exp))


def test_canonicalize_merges():
    x = lf(1, x1=1)
    f = FormulaExpression((_zfac(x), _zfac(x)))
    out = canonicalize(f)
    assert len(out.factors) == 1
    assert out.factors[0].exponent == Q(-2)


def test_canonicalize_cancels():
    x = lf(1, x1=1)
    f = FormulaExpression((_zfac(x, -1), _zfac(x, 1)))
    assert canonicalize(f).factors == ()
    assert render(canonicalize(f)) == "1"


def test_canonicalize_idempotent_and_order_insensitive():
    a, b = lf(1, s2=1), lf(1, s3=1)
    f1 = FormulaExpression((_zfac(a), _zfac(b)))
    f2 = FormulaExpression((_zfac(b), _zfac(a)))
    assert canonicalize(f1) == canonicalize(f2)
    assert canonicalize(canonicalize(f1)) == canonicalize(f1)


def test_render_text_grouped_example():
    s2 = Symbol("s2", kind="s_variable")
    s3 = Symbol("s3", kind="s_variable")
    f = FormulaExpression(
        (
            Factor("L_star", LinearForm.build(1, {s2: 1}), rep="π"),
            Factor("L_star", LinearForm.build(1, {s2: 1, s3: 1}), rep="π"),
            _zfac(LinearForm.build(1, {s3: 1})),
        )
    )
    assert render(f, "text") == "L*(s2+1,π)^-1 · L*(s2+s3+1,π)^-1 · ζ*(s3+1)^-1"


def test_render_latex_collapses_common_exponent():
    a1, a2, a3 = (Symbol(f"a{i}") for i in (1, 2, 3))
    f = FormulaExpression(
        (
            _zfac(LinearForm.build(1, {a1: 1, a2: -1})),
            _zfac(LinearForm.build(1, {a2: 1, a3: -1})),
            _zfac(LinearForm.build(1, {a1: 1, a3: -1})),
        )
    )
    expected = (
        r"\left(\zeta^*(1+\alpha_1-\alpha_2)\zeta^*(1+\alpha_2-\alpha_3)"
        r"\zeta^*(1+\alpha_1-\alpha_3)\right)^{-1}"
    )
    assert render(f, "latex") == expected


def test_render_empty_product():
    assert render(FormulaExpression()) == "1"


def test_json_round_trip():
    s2 = Symbol("s2", kind="s_variable")
    f = canonicalize(
        FormulaExpression(
            (
                Factor("L_star", LinearForm.build(1, {s2: 1, T: -1}), rep="π"),
                Factor("norm_symbol", LinearForm.build(1), rep="Ad π", exponent=Q(-1, 2)),
            ),
            scalar="up_to_nonzero_constant",
        )
    )
    text = formula_to_json(f)
    doc = json.loads(text)
    assert doc["scalar"] == "up_to_nonzero_constant"
    back = parse_formula_json(text)
    assert back == f
    assert render(back, "json") == render(f, "json")


def test_json_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from eiscoeff.symalg import FORMULA_JSON_SCHEMA

    f = FormulaExpression((_zfac(lf(1, s2=1)), Factor("c", lf(0, nu=2), exponent=Q(1))))
    jsonschema.validate(json.loads(formula_to_json(f)), FORMULA_JSON_SCHEMA)


def test_expand_c():
    x = lf(0, nu=2)
    f = FormulaExpression((Factor("c", x, exponent=Q(1)),))
    out = expand_c_factors(f)
    kinds = {(fac.kind, fac.exponent, fac.argument) for fac in out.factors}
    assert kinds == {("zeta_star", Q(1), x), ("zeta_star", Q(-1), x + 1)}


def test_sort_key_is_kept_outside_equality_and_hash():
    s2 = Symbol("s2", kind="s_variable")
    form = LinearForm.build(Q(1, 2), {s2: 1, T: Q(-3, 4)})
    key = form.sort_key()
    assert form.sort_key() is key  # computed once
    fresh = LinearForm.build(Q(1, 2), {s2: 1, T: Q(-3, 4)})
    assert "_sort_key" not in vars(fresh)
    assert form == fresh and hash(form) == hash(fresh)
    assert fresh.sort_key() == key
    assert repr(form) == repr(LinearForm.build(Q(1, 2), {s2: 1, T: Q(-3, 4)}))
    f = canonicalize(FormulaExpression((Factor("L_star", form, rep="π"), _zfac(lf(1, s2=1)))))
    back = parse_formula_json(formula_to_json(f))
    assert back == f
    assert [hash(fac.argument) for fac in back.factors] == [hash(fac.argument) for fac in f.factors]
    assert [fac.argument.sort_key() for fac in back.factors] == [fac.argument.sort_key() for fac in f.factors]


def test_combine_matches_repeated_addition():
    s2 = Symbol("s2", kind="s_variable")
    a = LinearForm.build(1, {s2: 2, T: Q(1, 3)})
    b = LinearForm.build(Q(-1, 2), {T: Q(-1, 3), S: 1})
    combined = LinearForm.combine([(a, 3), (b, Q(2, 5)), (a, -1)], 7)
    assert combined == a * 3 + b * Q(2, 5) - a + 7
    assert type(combined.constant) is Q and all(type(c) is Q for _, c in combined.terms)
    assert LinearForm.combine([]) == LinearForm()
    assert LinearForm.combine([(a, 1), (a, -1)]) == LinearForm()


def test_symbols_with_equal_digit_values_sort_apart():
    # t01 and t1 have the same natural key; the name breaks the tie
    t01, t1 = Symbol("t01"), Symbol("t1")
    assert t01.sort_key() != t1.sort_key()
    one = LinearForm.build(0, {t01: 1, t1: 1})
    other = LinearForm.build(0, {t1: 1, t01: 1})
    assert one == other and hash(one) == hash(other)
    assert str(one) == str(other)
