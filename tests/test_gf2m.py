"""Field arithmetic tests for the GF(2^m) table implementation."""

import pytest
from hypothesis import given, strategies as st

from rscatter.errors import ParameterError
from rscatter.gf2m import FieldContext, PRIMITIVE_POLYS


def test_supported_degrees_and_polynomials():
    assert sorted(PRIMITIVE_POLYS) == [3, 4, 5, 6, 7]
    # fixed minimal-weight primitive polynomials, so codewords are
    # reproducible across runs and implementations
    assert PRIMITIVE_POLYS[3] == 0b1011
    assert PRIMITIVE_POLYS[4] == 0b10011
    assert PRIMITIVE_POLYS[5] == 0b100101
    assert PRIMITIVE_POLYS[6] == 0b1000011
    assert PRIMITIVE_POLYS[7] == 0b10001001


def test_rejects_unsupported_degree():
    for m in (0, 1, 2, 8, 9):
        with pytest.raises(ParameterError):
            FieldContext(m)


def test_exp_log_are_inverse_bijections():
    for m in PRIMITIVE_POLYS:
        gf = FieldContext(m)
        seen = set()
        for e in range(gf.order):
            x = gf.exp(e)
            assert 1 <= x < gf.size
            assert gf.log(x) == e
            seen.add(x)
        assert len(seen) == gf.order  # alpha generates every nonzero element


@pytest.mark.parametrize("m", [3, 4])
def test_field_axioms_exhaustive(m):
    gf = FieldContext(m)
    elems = range(gf.size)
    for a in elems:
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in elems:
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in elems:
                assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


@given(
    st.sampled_from([5, 6, 7]),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=127),
)
def test_associativity_sampled(m, a, b, c):
    gf = FieldContext(m)
    a, b, c = a % gf.size, b % gf.size, c % gf.size
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


def test_pow_matches_repeated_multiplication():
    gf = FieldContext(5)
    for a in (1, 2, 7, 19, 31):
        acc = 1
        for e in range(12):
            assert gf.pow(a, e) == acc
            acc = gf.mul(acc, a)
    assert gf.pow(0, 0) == 1
    assert gf.pow(0, 3) == 0


def test_division_and_zero_handling():
    gf = FieldContext(6)
    for a in (1, 5, 44, 63):
        for b in (1, 2, 33, 62):
            assert gf.mul(gf.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        gf.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.log(0)


def test_nonprimitive_polynomial_is_rejected():
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1) is reducible, hence not primitive
    with pytest.raises(ParameterError):
        bad = FieldContext.__new__(FieldContext)
        bad.m = 3
        bad.primitive_poly = 0b1111
        bad.size = 8
        bad.order = 7
        bad.exp_table = [0] * 14
        bad.log_table = [0] * 8
        bad._build_tables()
