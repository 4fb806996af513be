"""GF(2^m) table tests, checked against the shift-and-xor oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gf_oracle import gf_mul, gf_pow
from rscatter import gf2m
from rscatter.errors import ParameterError
from rscatter.gf2m import PRIMITIVE_POLYS, tables


def _products(m):
    """The table product of every pair (a, b), zero included."""
    log, expt = tables(m)
    return expt[log[:, None] + log[None, :]].astype(np.int64)


def _mul(m, a, b):
    log, expt = tables(m)
    return int(expt[log[a] + log[b]])


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
            tables(m)


def test_tables_are_shared_and_read_only():
    for m in PRIMITIVE_POLYS:
        log, expt = tables(m)
        assert tables(m)[0] is log and tables(m)[1] is expt
        with pytest.raises(ValueError):
            log[1] = 0
        with pytest.raises(ValueError):
            expt[0] = 0


def test_exp_log_are_inverse_bijections():
    for m in PRIMITIVE_POLYS:
        log, expt = tables(m)
        n = (1 << m) - 1
        assert log.shape == (n + 1,) and expt.shape == (4 * n + 1,)
        seen = set()
        for e in range(n):
            x = int(expt[e])
            assert 1 <= x <= n
            assert x == gf_pow(m, 2, e)  # alpha = x, the polynomial's root
            assert expt[e + n] == x
            assert log[x] == e
            seen.add(x)
        assert len(seen) == n  # alpha generates every nonzero element
        # the log of zero points into the zero block
        assert log[0] == 2 * n and not expt[2 * n :].any()


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_table_product_matches_oracle(m):
    size = 1 << m
    oracle = [[gf_mul(m, a, b) for b in range(size)] for a in range(size)]
    assert _products(m).tolist() == oracle


@pytest.mark.parametrize("m", [3, 4])
def test_field_axioms_exhaustive(m):
    prod = _products(m)
    elems = range(1 << m)
    for a in elems:
        assert prod[a, 1] == a
        assert prod[a, 0] == 0
        if a:
            assert (prod[a] == 1).sum() == 1  # a unique inverse
        for b in elems:
            assert prod[a, b] == prod[b, a]
            for c in elems:
                assert prod[a, b ^ c] == prod[a, b] ^ prod[a, c]


@given(
    st.sampled_from([5, 6, 7]),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=127),
)
def test_associativity_sampled(m, a, b, c):
    size = 1 << m
    a, b, c = a % size, b % size, c % size
    assert _mul(m, _mul(m, a, b), c) == _mul(m, a, _mul(m, b, c))


def test_pow_matches_repeated_multiplication():
    # a^e is alpha^(log(a) e), read from the exp table
    for m in PRIMITIVE_POLYS:
        log, expt = tables(m)
        n = (1 << m) - 1
        for a in (1, 2, 7, n // 2, n):
            for e in range(12):
                assert expt[log[a] * e % n] == gf_pow(m, a, e)


def test_division_and_zero_handling():
    # the quotient a / b is expt[log[a] + n - log[b]] for nonzero b
    for m in PRIMITIVE_POLYS:
        log, expt = tables(m)
        n = (1 << m) - 1
        for a in range(n + 1):
            for b in range(1, n + 1):
                assert gf_mul(m, expt[log[a] + n - log[b]], b) == a
        # a zero numerator lands in the zero block
        assert not expt[log[0] + n - log[1 : n + 1]].any()


def test_nonprimitive_polynomial_is_rejected(monkeypatch):
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1) is reducible, hence not primitive;
    # the uncached builder sees the patched polynomial
    monkeypatch.setitem(gf2m.PRIMITIVE_POLYS, 3, 0b1111)
    with pytest.raises(ParameterError):
        tables.__wrapped__(3)
