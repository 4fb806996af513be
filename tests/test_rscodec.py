"""Reed-Solomon encoder/decoder tests, including exhaustive capability
checks on the small field and randomized stress on the large ones."""

import itertools

import numpy as np
import pytest

from gf_oracle import generator_poly, gf_mul, gf_pow, poly_eval
from rscatter.errors import ParameterError
from rscatter.rscodec import (
    ADMISSIBLE_N, RsCode, _bit_symbols, _syndrome_bits, decode, encode, encode_bits,
)


def _random_info(rng, code):
    return [int(v) for v in rng.integers(0, code.n + 1, size=code.k)]


def test_admissible_lengths():
    assert ADMISSIBLE_N == (7, 15, 31, 63, 127)


def test_code_parameter_validation():
    with pytest.raises(ParameterError):
        RsCode(8, 3)
    with pytest.raises(ParameterError):
        RsCode(7, 4)  # even k leaves an odd symbol budget for t
    with pytest.raises(ParameterError):
        RsCode(7, 7)
    with pytest.raises(ParameterError):
        RsCode(7, -1)
    code = RsCode(15, 9)
    assert (code.m, code.t) == (4, 3)


def test_generator_has_consecutive_roots():
    for n, k in [(7, 3), (15, 7), (63, 45)]:
        m = n.bit_length()
        g = generator_poly(m, n - k)
        assert g[0] == 1 and len(g) == n - k + 1
        for i in range(1, n - k + 1):
            assert poly_eval(m, g, gf_pow(m, 2, i)) == 0


def test_encode_is_systematic_and_in_code():
    rng = np.random.default_rng(5)
    for n, k in [(7, 3), (31, 17), (127, 95)]:
        code = RsCode(n, k)
        info = _random_info(rng, code)
        cw = encode(code, info)
        assert cw[:k] == info
        # codeword evaluates to zero at every parity-check root
        for i in range(1, n - k + 1):
            assert poly_eval(code.m, cw, gf_pow(code.m, 2, i)) == 0


def test_encode_validates_inputs():
    code = RsCode(7, 3)
    with pytest.raises(ParameterError):
        encode(code, [1, 2])
    with pytest.raises(ParameterError):
        encode(code, [1, 2, 8])


def _reference_encode(code, info):
    """Systematic encode by synthetic division by g(x), symbol by symbol."""
    gen = generator_poly(code.m, code.n - code.k)
    rem = list(info) + [0] * (code.n - code.k)
    for i in range(code.k):
        coef = rem[i]
        if coef:
            for j in range(1, len(gen)):
                rem[i + j] ^= gf_mul(code.m, gen[j], coef)
    return list(info) + rem[code.k :]


def _to_bits(symbols, m):
    shifts = np.arange(m - 1, -1, -1)
    return ((symbols[..., None] >> shifts) & 1).reshape(symbols.shape[0], -1)


def test_encode_matches_synthetic_division_reference():
    rng = np.random.default_rng(17)
    for n in ADMISSIBLE_N:
        for k in (1, n // 2 | 1, n - 2):
            code = RsCode(n, k)
            info = rng.integers(0, n + 1, size=(12, k))
            info[0] = 0
            info[1] = n
            expected = [_reference_encode(code, row.tolist()) for row in info]
            assert [encode(code, row.tolist()) for row in info] == expected
            cw_bits = encode_bits(code, _to_bits(info, code.m))
            assert cw_bits.shape == (12, n * code.m)
            assert (cw_bits == _to_bits(np.array(expected), code.m)).all()


def test_every_binary_generator_row_is_a_codeword():
    # each row of [I | G2] is the binary image of a codeword, so its
    # syndrome under the independently built parity-check image is zero
    for n in ADMISSIBLE_N:
        for k in range(1, n - 1, 2):
            code = RsCode(n, k)
            rows = np.hstack([np.eye(k * code.m, dtype=np.float32), code.binary_generator])
            assert ((rows @ code.binary_parity_check) % 2 == 0).all()


def test_encode_bits_validates_shape_and_range():
    code = RsCode(7, 3)  # k*m = 9 info bits per word
    with pytest.raises(ParameterError):
        encode_bits(code, np.zeros((4, 8), dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode_bits(code, np.zeros(9, dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode_bits(code, np.full((2, 9), 2))
    with pytest.raises(ParameterError):
        encode_bits(code, np.full((2, 9), -1))
    assert encode_bits(code, np.zeros((0, 9), dtype=np.uint8)).shape == (0, 21)


def _horner_syndromes(code, word):
    """S_i = r(alpha^i) for i = 1..n-k by Horner's rule; word[0] is the
    coefficient of x^(n-1)."""
    return [
        poly_eval(code.m, word, gf_pow(code.m, 2, i)) for i in range(1, code.n - code.k + 1)
    ]


def test_binary_syndromes_match_horner_reference():
    rng = np.random.default_rng(23)
    for n in ADMISSIBLE_N:
        for k in (1, n // 2 | 1, n - 2):
            code = RsCode(n, k)
            assert code.binary_parity_check.shape == (n * code.m, (n - k) * code.m)
            words = [np.zeros(n, dtype=np.int64), np.full(n, n)]
            words += [rng.integers(0, n + 1, size=n) for _ in range(4)]
            for word in words:
                synd = _bit_symbols(code, _syndrome_bits(code, word))
                assert synd.tolist() == _horner_syndromes(code, word.tolist())
            for _ in range(3):
                cw = np.array(encode(code, _random_info(rng, code)))
                assert not _syndrome_bits(code, cw).any()


def test_decode_clean_word_roundtrip():
    rng = np.random.default_rng(2)
    for n, k in [(7, 1), (15, 13), (31, 11), (63, 45), (127, 125)]:
        code = RsCode(n, k)
        info = _random_info(rng, code)
        assert decode(code, encode(code, info)) == info


def test_every_single_and_double_error_corrected():
    code = RsCode(7, 3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        info = _random_info(rng, code)
        cw = encode(code, info)
        for pos in range(7):
            for err in range(1, 8):
                word = list(cw)
                word[pos] ^= err
                assert decode(code, word) == info
        for p1, p2 in itertools.combinations(range(7), 2):
            for e1 in range(1, 8):
                for e2 in range(1, 8):
                    word = list(cw)
                    word[p1] ^= e1
                    word[p2] ^= e2
                    assert decode(code, word) == info


def test_every_erasure_pattern_up_to_capacity_corrected():
    code = RsCode(7, 3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        info = _random_info(rng, code)
        cw = encode(code, info)
        for f in range(0, 5):  # n - k = 4 erasures correctable
            for positions in itertools.combinations(range(7), f):
                word = list(cw)
                for p in positions:
                    word[p] = 0
                assert decode(code, word, positions) == info


def test_mixed_errors_and_erasures_within_capacity():
    code = RsCode(7, 3)
    rng = np.random.default_rng(6)
    for _ in range(20):
        info = _random_info(rng, code)
        cw = encode(code, info)
        # 2e + f = 4 boundary patterns: one error plus two erasures
        positions = rng.choice(7, size=3, replace=False)
        word = list(cw)
        word[positions[0]] ^= int(rng.integers(1, 8))
        word[positions[1]] = 0
        word[positions[2]] = 0
        assert decode(code, word, positions[1:].tolist()) == info


def test_beyond_capacity_fails_or_miscorrects_to_codeword():
    # three errors exceed t=2; decode must either fail or land on another
    # valid codeword within distance t of the received word -- never return
    # an inconsistent answer (catching that is the CRC's job upstream)
    code = RsCode(7, 3)
    rng = np.random.default_rng(7)
    outcomes = {"failed": 0, "miscorrected": 0}
    for _ in range(20):
        info = _random_info(rng, code)
        cw = encode(code, info)
        for positions in itertools.combinations(range(7), 3):
            word = list(cw)
            for p in positions:
                word[p] ^= int(rng.integers(1, 8))
            out = decode(code, word)
            if out is None:
                outcomes["failed"] += 1
                continue
            assert out != info or word == cw  # cannot undo 3 real errors
            other = encode(code, out)
            dist = sum(a != b for a, b in zip(other, word))
            assert dist <= code.t
            outcomes["miscorrected"] += 1
    assert outcomes["failed"] > 0
    # miscorrections exist for this small code; they must stay a minority
    assert outcomes["miscorrected"] < outcomes["failed"]


def test_too_many_erasures_fail():
    code = RsCode(7, 3)
    info = [1, 2, 3]
    cw = encode(code, info)
    word = [0, 0, 0, 0, 0] + cw[5:]
    assert decode(code, word, [0, 1, 2, 3, 4]) is None


def test_large_code_random_stress_within_capacity():
    # every field, at the smallest, a middle and the largest k; each code
    # gets the boundary words f = n - k (erasures only) and e = t (errors
    # only), then random mixes with 2e + f <= n - k
    rng = np.random.default_rng(8)
    for n in ADMISSIBLE_N:
        for k in (1, n // 2 | 1, n - 2):
            code = RsCode(n, k)
            d = n - k
            patterns = [(d, 0), (0, code.t)]
            for _ in range(10):
                f = int(rng.integers(0, d + 1))
                patterns.append((f, int(rng.integers(0, (d - f) // 2 + 1))))
            for f, e in patterns:
                info = _random_info(rng, code)
                positions = rng.choice(n, size=f + e, replace=False)
                word = encode(code, info)
                for p in positions[:f]:
                    word[p] = 0
                for p in positions[f:]:
                    word[p] ^= int(rng.integers(1, n + 1))
                assert decode(code, word, positions[:f].tolist()) == info


def test_decode_validates_inputs():
    code = RsCode(7, 3)
    with pytest.raises(ParameterError):
        decode(code, [0] * 6)
    with pytest.raises(ParameterError):
        decode(code, [0] * 7, [7])
    for bad in (8, -1):
        with pytest.raises(ParameterError):
            decode(code, [0] * 6 + [bad])
