"""Reed-Solomon encoder/decoder tests, including exhaustive capability
checks on the small field and randomized stress on the large ones."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gf_oracle import generator_poly, gf_mul, gf_pow, poly_eval, rs_decode
from rscatter.errors import ParameterError
from rscatter import rscodec
from rscatter.rscodec import (
    ADMISSIBLE_N, RsCode, _syndromes, bits_to_symbols, decode_block, encode_bits,
    symbols_to_bits,
)


def _random_info(rng, code):
    return [int(v) for v in rng.integers(0, code.n + 1, size=code.k)]


def _codewords(code, info):
    """The codewords of a (rows, k) block of info symbols, as int64 symbols."""
    bits = symbols_to_bits(info.ravel(), code.m).reshape(len(info), -1)
    words = bits_to_symbols(encode_bits(code, bits), code.m).reshape(len(info), code.n)
    return words.astype(np.int64)


def _bits(code, words):
    """The bits of an (..., n) array of symbols, as an (..., n*m) array."""
    words = np.asarray(words)
    return symbols_to_bits(words, code.m).reshape(words.shape[:-1] + (-1,))


def _decode(code, words, erased):
    """decode_block on a (rows, n) block of received symbols, fed to it as
    bits: the (rows, k) info symbols it returns and its success mask."""
    out, ok = decode_block(code, _bits(code, words), erased)
    return bits_to_symbols(out, code.m).reshape(len(out), code.k), ok


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
    # n and k are integers, not bools or floats of integral value
    for n, k in ((15.0, 9), (15, 9.0), (15, True), (True, 1), ("15", 9)):
        with pytest.raises(ParameterError, match="must be an integer"):
            RsCode(n, k)
    code = RsCode(15, 9)
    assert (code.m, code.t) == (4, 3)
    code = RsCode(np.int64(15), np.int64(9))
    assert (code.n, code.k, code.m, code.t) == (15, 9, 4, 3)
    assert all(type(v) is int for v in (code.n, code.k, code.m, code.t))


def test_symbol_packing_rejects_partial_group():
    # 9 bits at m=3 are 3 symbols; 7 bits leave a partial last group
    bits = [1, 0, 1, 1, 1, 0, 1, 0, 0]
    syms = bits_to_symbols(bits, 3)
    assert syms.tolist() == [0b101, 0b110, 0b100]
    assert symbols_to_bits(syms, 3).tolist() == bits
    for partial in (bits[:7], bits[:1]):
        with pytest.raises(ParameterError):
            bits_to_symbols(partial, 3)
    # each row must hold whole symbols: 3 rows of 4 bits are 12 bits, but
    # grouping them by 3 would make symbols that straddle the rows
    with pytest.raises(ParameterError):
        bits_to_symbols(np.array([[1, 0, 0, 0]] * 3), 3)
    assert bits_to_symbols(np.array([bits[:6]] * 2), 3).tolist() == [0b101, 0b110] * 2


@given(st.lists(st.integers(0, 1), min_size=0, max_size=200), st.integers(3, 7))
@settings(max_examples=60)
def test_symbol_packing_roundtrip_property(bits, m):
    bits = bits[: len(bits) - len(bits) % m]  # whole symbols
    syms = bits_to_symbols(bits, m)
    assert len(syms) == len(bits) // m
    assert symbols_to_bits(syms, m).tolist() == bits


def test_symbol_packing_validates_m():
    with pytest.raises(ParameterError):
        bits_to_symbols([1, 0], 2)
    with pytest.raises(ParameterError):
        symbols_to_bits([1], 8)


def test_symbol_packing_validates_values():
    # each would otherwise be cast to a wrong symbol or lose bits silently
    for bits in ([2, 0, 0], np.array([-1, 0, 0]), [0.0, np.nan, 1.0], [0.5, 1, 0.9]):
        with pytest.raises(ParameterError):
            bits_to_symbols(bits, 3)
    for symbols in ([9], [-1], np.array([[1, 8]]), [2.7]):
        with pytest.raises(ParameterError):
            symbols_to_bits(symbols, 3)
    assert symbols_to_bits([7, 0], 3).tolist() == [1, 1, 1, 0, 0, 0]


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
        cw = _codewords(code, np.array([info]))[0].tolist()
        assert cw[:k] == info
        # codeword evaluates to zero at every parity-check root
        for i in range(1, n - k + 1):
            assert poly_eval(code.m, cw, gf_pow(code.m, 2, i)) == 0


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
            cw_bits = encode_bits(code, _to_bits(info, code.m))
            assert cw_bits.shape == (12, n * code.m)
            assert (cw_bits == _to_bits(np.array(expected), code.m)).all()


def test_every_binary_generator_row_is_a_codeword():
    # each row of [I | G2] is the binary image of a codeword, so its
    # symbols have zero syndromes on the field tables
    for n in ADMISSIBLE_N:
        for k in range(1, n - 1, 2):
            code = RsCode(n, k)
            rows = np.hstack([np.eye(k * code.m, dtype=np.uint8), code.binary_generator])
            words = bits_to_symbols(rows, code.m).reshape(-1, n)
            assert not _syndromes(code, _bits(code, words)).any()


def test_generator_logs_are_small_read_only_and_cached():
    # each code's Cauchy logs are kept once per process as read-only uint8,
    # all 119 in under 200 KB, and every parity matrix is gathered from them
    codes = [(n, k) for n in ADMISSIBLE_N for k in range(1, n - 1, 2)]
    rscodec._generator_logs.cache_clear()
    logs = [rscodec._generator_logs(n, k) for n, k in codes]
    for n, k in codes:
        RsCode(n, k).binary_generator
    info = rscodec._generator_logs.cache_info()
    assert len(codes) == info.currsize == info.misses == 119
    assert sum(a.nbytes for a in logs) <= 200_000
    for a in logs:
        assert a.dtype == np.uint8 and not a.flags.writeable


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
    with pytest.raises(ParameterError):
        encode_bits(code, np.full((2, 9), 0.5))
    assert encode_bits(code, np.zeros((0, 9), dtype=np.uint8)).shape == (0, 21)
    # rows of j <= k whole symbols are shortened words; more than k are not
    with pytest.raises(ParameterError):
        encode_bits(code, np.zeros((2, 12), dtype=np.uint8))
    assert encode_bits(code, np.zeros((2, 6), dtype=np.uint8)).shape == (2, 18)


def test_shortened_encode_equals_zero_filled_encode():
    # j info symbols encode as the k-symbol word whose last k - j are 0: its
    # j info symbols, then the same parity
    rng = np.random.default_rng(31)
    for n in ADMISSIBLE_N:
        for _ in range(6):
            code = RsCode(n, 2 * int(rng.integers(0, (n - 1) // 2)) + 1)
            j = int(rng.integers(0, code.k + 1))
            info = rng.integers(0, 2, (9, j * code.m), dtype=np.uint8)
            full = encode_bits(code, np.hstack([info, np.zeros((9, (code.k - j) * code.m),
                                                               dtype=np.uint8)]))
            short = encode_bits(code, info)
            assert short.shape == (9, (j + n - code.k) * code.m)
            assert np.array_equal(short, np.delete(full, np.s_[j * code.m : code.k * code.m], 1))


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
            words = [np.zeros(n, dtype=np.int64), np.full(n, n)]
            words += [rng.integers(0, n + 1, size=n) for _ in range(4)]
            expected = [_horner_syndromes(code, word.tolist()) for word in words]
            for word, synd in zip(words, expected):
                assert _syndromes(code, _bits(code, word)).tolist() == synd
            # a (rows, n*m) block gives each row's syndromes
            assert _syndromes(code, _bits(code, np.array(words))).tolist() == expected
            info = np.array([_random_info(rng, code) for _ in range(3)])
            assert not _syndromes(code, _bits(code, _codewords(code, info))).any()
            # a block of no rows has no syndromes
            empty = np.zeros((0, n * code.m), dtype=np.uint8)
            assert _syndromes(code, empty).shape == (0, n - k)


def test_check_image_rows_are_unit_word_syndromes():
    # row i of the check image holds the syndrome bits of the word whose
    # only set bit is bit i: bit b = i % m (MSB first) of symbol p = i // m,
    # the one-term polynomial v x^(n-1-p) with v = 2^(m-1-b), whose S_j is
    # v (alpha^j)^(n-1-p)
    for n in ADMISSIBLE_N:
        m = n.bit_length()
        powers = [gf_pow(m, 2, e) for e in range(n)]
        for k in (1, n - 2):
            code = RsCode(n, k)
            image = code.check_image
            assert image.shape == (n * m, (n - k) * m) and image.dtype == np.float32
            expected = [
                [gf_mul(m, 1 << (m - 1 - i % m), powers[j * (n - 1 - i // m) % n])
                 for j in range(1, n - k + 1)]
                for i in range(n * m)
            ]
            assert (image == _to_bits(np.array(expected), m)).all()


def test_decode_clean_word_roundtrip():
    rng = np.random.default_rng(2)
    for n, k in [(7, 1), (15, 13), (31, 11), (63, 45), (127, 125)]:
        code = RsCode(n, k)
        info = np.array([_random_info(rng, code)])
        assert _decodes_to(code, _codewords(code, info), np.zeros((1, n), dtype=bool), info)


def _decodes_to(code, words, erased, info):
    """Whether every row of a block decodes to its own row of info."""
    out, ok = _decode(code, words, erased)
    return ok.all() and (out == info).all()


def test_every_single_and_double_error_corrected():
    # all 7 * 7 single and 21 * 49 double error patterns, on 10 codewords
    code = RsCode(7, 3)
    rng = np.random.default_rng(3)
    patterns = []
    for pos in range(7):
        for err in range(1, 8):
            patterns.append(np.zeros(7, dtype=np.int64))
            patterns[-1][pos] = err
    for p1, p2 in itertools.combinations(range(7), 2):
        for e1 in range(1, 8):
            for e2 in range(1, 8):
                patterns.append(np.zeros(7, dtype=np.int64))
                patterns[-1][[p1, p2]] = e1, e2
    info = np.array([_random_info(rng, code) for _ in range(10)]).repeat(len(patterns), axis=0)
    words = _codewords(code, info) ^ np.tile(patterns, (10, 1))
    assert _decodes_to(code, words, np.zeros(words.shape, dtype=bool), info)


def test_every_erasure_pattern_up_to_capacity_corrected():
    code = RsCode(7, 3)
    rng = np.random.default_rng(4)
    erased = np.array([
        np.isin(range(7), positions)
        for f in range(0, 5)  # n - k = 4 erasures correctable
        for positions in itertools.combinations(range(7), f)
    ])
    info = np.array([_random_info(rng, code) for _ in range(10)]).repeat(len(erased), axis=0)
    erased = np.tile(erased, (10, 1))
    words = np.where(erased, 0, _codewords(code, info))
    assert _decodes_to(code, words, erased, info)


def test_mixed_errors_and_erasures_within_capacity():
    code = RsCode(7, 3)
    rng = np.random.default_rng(6)
    info, erased, flips = [], np.zeros((20, 7), dtype=bool), np.zeros((20, 7), dtype=np.int64)
    for row in range(20):
        info.append(_random_info(rng, code))
        # 2e + f = 4 boundary patterns: one error plus two erasures
        positions = rng.choice(7, size=3, replace=False)
        flips[row, positions[0]] = rng.integers(1, 8)
        erased[row, positions[1:]] = True
    info = np.array(info)
    words = np.where(erased, 0, _codewords(code, info) ^ flips)
    assert _decodes_to(code, words, erased, info)


def test_beyond_capacity_fails_or_miscorrects_to_codeword():
    # three errors exceed t=2; decode must either fail or land on another
    # valid codeword within distance t of the received word -- never return
    # an inconsistent answer (catching that is the CRC's job upstream)
    code = RsCode(7, 3)
    rng = np.random.default_rng(7)
    info, flips = [], []
    for _ in range(20):
        info.append(_random_info(rng, code))
        for positions in itertools.combinations(range(7), 3):
            flips.append(np.zeros(7, dtype=np.int64))
            flips[-1][list(positions)] = [int(rng.integers(1, 8)) for _ in positions]
    sent = np.array(info).repeat(35, axis=0)
    words = _codewords(code, np.array(info)).repeat(35, axis=0) ^ np.array(flips)
    out, ok = _decode(code, words, np.zeros(words.shape, dtype=bool))
    assert (out[~ok] == words[~ok, :3]).all()  # a failed row keeps its info symbols
    assert (out[ok] != sent[ok]).any(axis=1).all()  # cannot undo 3 real errors
    assert ((_codewords(code, out[ok]) != words[ok]).sum(axis=1) <= code.t).all()
    assert (~ok).sum() > 0
    # miscorrections exist for this small code; they must stay a minority
    assert ok.sum() < (~ok).sum()


def test_too_many_erasures_fail():
    code = RsCode(7, 3)
    erased = np.arange(7)[None] < 5
    word = np.where(erased, 0, _codewords(code, np.array([[1, 2, 3]])))
    _, ok = _decode(code, word, erased)
    assert not ok.any()


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
            info = []
            erased = np.zeros((len(patterns), n), dtype=bool)
            flips = np.zeros((len(patterns), n), dtype=np.int64)
            for row, (f, e) in enumerate(patterns):
                info.append(_random_info(rng, code))
                positions = rng.choice(n, size=f + e, replace=False)
                erased[row, positions[:f]] = True
                flips[row, positions[f:]] = [int(rng.integers(1, n + 1)) for _ in range(e)]
            info = np.array(info)
            words = np.where(erased, 0, _codewords(code, info) ^ flips)
            assert _decodes_to(code, words, erased, info)


def _mixed_block(rng, code, rows):
    """A (rows, n) block of received words and its erasure mask whose rows
    cycle, in a shuffled order, through four kinds: clean codewords,
    erasures only (their Forney syndromes are zero), errors within
    capacity with or without erasures, and words past capacity."""
    n, d = code.n, code.n - code.k
    words = _codewords(code, rng.integers(0, n + 1, size=(rows, code.k)))
    erased = np.zeros(words.shape, dtype=bool)
    for row, kind in enumerate(rng.permutation(np.arange(rows) % 4)):
        if kind == 0:
            continue
        if kind == 1:
            f, e = int(rng.integers(1, d + 1)), 0
        elif kind == 2:
            f = int(rng.integers(0, d - 1))
            e = int(rng.integers(1, (d - f) // 2 + 1))
        else:
            f = min(int(rng.integers(0, d + 3)), n)
            e = min(max(0, (d - f) // 2 + 1 + int(rng.integers(0, 3))), n - f)
        positions = rng.choice(n, size=f + e, replace=False)
        erased[row, positions[:f]] = True
        words[row, positions[:f]] = rng.integers(0, n + 1, size=f)
        words[row, positions[f:]] ^= rng.integers(1, n + 1, size=e)
    return words, erased


@given(st.integers(3, 7), st.integers(1, 128), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_decode_block_matches_scalar_oracle(m, rows, seed):
    # random codes and blocks of up to 128 rows mixing the four kinds of
    # _mixed_block: each row decodes as the scalar oracle decodes it, and
    # as the decoder decodes it alone, so the rows that skip
    # Berlekamp-Massey and the roots-only Forney step cannot disturb the
    # indexing of the others
    rng = np.random.default_rng(seed)
    n = (1 << m) - 1
    code = RsCode(n, 2 * int(rng.integers(0, (n - 1) // 2)) + 1)
    words, erased = _mixed_block(rng, code, rows)
    out, ok = _decode(code, words, erased)
    for word, flags, got, good in zip(words, erased, out, ok):
        expected = rs_decode(n, code.k, word, np.flatnonzero(flags))
        assert (got.tolist() if good else None) == expected
        alone, alone_ok = _decode(code, word[None], flags[None])
        assert alone_ok[0] == good and (alone[0] == got).all()


def _erasure_only_block(rng, code):
    """Erasure-only rows of a block at every f = 1..n - k: erased positions
    in parity only, in info only (when f <= k) and in both, each erased
    symbol received as a random value; returns words, erasures and info."""
    n, k = code.n, code.k
    erased = []
    for f in range(1, n - k + 1):
        placements = [rng.choice(np.arange(k, n), size=f, replace=False)]
        if f <= k:
            placements.append(rng.choice(k, size=f, replace=False))
        if f >= 2:
            split = int(rng.integers(max(1, f - (n - k)), min(f - 1, k) + 1))
            placements.append(np.concatenate([rng.choice(k, size=split, replace=False),
                                              rng.choice(np.arange(k, n), size=f - split,
                                                         replace=False)]))
        erased += [np.isin(np.arange(n), positions) for positions in placements]
    erased = np.array(erased)
    info = rng.integers(0, n + 1, size=(len(erased), k))
    words = np.where(erased, rng.integers(0, n + 1, size=erased.shape), _codewords(code, info))
    return words, erased, info


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_erasure_only_rows_decode_without_chien_search(m, monkeypatch):
    # a row whose Forney syndromes are all zero takes its erased positions
    # as the roots of Psi and skips the Chien search and the final re-check;
    # at every f = 1..n - k, with erasures in parity only, in info only and
    # in both, it decodes to its codeword, as the scalar oracle does.  In
    # the same block, rows with errors and erasures and rows past capacity
    # still go through every step and decode (or fail) as the oracle says
    rng = np.random.default_rng(m)
    n = (1 << m) - 1
    code = RsCode(n, n // 2 | 1)
    words, erased, info = _erasure_only_block(rng, code)
    searched = []
    eval_at = rscodec._eval_at

    def spy(code, polys, log_x):
        if polys.shape[-2] == 1 and np.shape(log_x) == (n,):  # the Chien search
            searched.append(len(polys))
        return eval_at(code, polys, log_x)

    monkeypatch.setattr(rscodec, "_eval_at", spy)
    assert _decodes_to(code, words, erased, info)
    assert searched == []
    mixed, mixed_erased = _mixed_block(rng, code, 64)
    block = np.concatenate([words, mixed])
    block_erased = np.concatenate([erased, mixed_erased])
    out, ok = _decode(code, block, block_erased)
    for word, flags, got, good in zip(block, block_erased, out, ok):
        expected = rs_decode(n, code.k, word, np.flatnonzero(flags))
        assert (got.tolist() if good else None) == expected
    assert ok[: len(words)].all() and (out[: len(words)] == info).all()
    # one Chien search, on mixed rows only: those with errors
    assert len(searched) == 1 and 0 < searched[0] <= len(mixed)


def test_codeword_received_as_sent_decodes_to_itself():
    # the premise that lets a caller skip the codewords received as sent:
    # at every field and at the smallest, a middle and the largest k, a
    # codeword received as sent decodes to itself under a random erasure
    # mask of every f = 0..n - k and of 20 more random f <= n - k
    rng = np.random.default_rng(31)
    for n in ADMISSIBLE_N:
        for k in (1, n // 2 | 1, n - 2):
            code = RsCode(n, k)
            d = n - k
            f = np.concatenate([np.arange(d + 1), rng.integers(0, d + 1, size=20)])
            erased = np.array([np.isin(np.arange(n), rng.choice(n, size=v, replace=False))
                               for v in f])
            info = rng.integers(0, n + 1, size=(len(f), k))
            bits = _bits(code, _codewords(code, info))
            out, ok = decode_block(code, bits, erased)
            assert ok.all() and (out == bits[:, : k * code.m]).all()


def _errata_block(rng, code, patterns):
    """Received words, erasure masks and info of one row per (f, e, where)
    pattern: f erased and e wrong symbols, every one received wrong, the
    erasures drawn from the parity positions when where is "parity" and
    from every position otherwise."""
    n, k = code.n, code.k
    info = rng.integers(0, n + 1, size=(len(patterns), k))
    words = _codewords(code, info)
    erased = np.zeros(words.shape, dtype=bool)
    for row, (f, e, where) in enumerate(patterns):
        lo = k if where == "parity" else 0
        flagged = rng.choice(np.arange(lo, n), size=f, replace=False)
        others = np.setdiff1d(np.arange(n), flagged)
        positions = np.concatenate([flagged, rng.choice(others, size=e, replace=False)])
        erased[row, flagged] = True
        words[row, positions] ^= rng.integers(1, n + 1, size=f + e)
    return words, erased, info


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_forney_skips_parity_points_and_truncates_horner(m, monkeypatch):
    # Forney's magnitudes are evaluated by Horner's rule over max(e + f)
    # coefficients, and an erasure-only row, which is not re-checked, gets
    # none at a parity position: a block whose rows are erasure-only with
    # every erasure in parity gets no Forney point at all, and in a block of
    # rows within capacity the points are the roots of the rows with errors
    # and the erased info positions of the erasure-only rows
    rng = np.random.default_rng(40 + m)
    n = (1 << m) - 1
    code = RsCode(n, n // 2 | 1)
    d, t = n - code.k, (n - code.k) // 2
    forney = []
    eval_at = rscodec._eval_at

    def spy(code, polys, log_x):
        if not (polys.shape[-2] == 1 and np.shape(log_x) == (n,)):  # not the Chien search
            forney.append((polys.shape[-1], np.size(log_x)))
        return eval_at(code, polys, log_x)

    monkeypatch.setattr(rscodec, "_eval_at", spy)
    words, erased, info = _errata_block(rng, code, [(f, 0, "parity") for f in range(1, d + 1)])
    assert _decodes_to(code, words, erased, info)
    assert sum(points for _, points in forney) == 0

    # e + f <= n - k - 1 on every row, so that the truncation shows
    patterns = [(f, 0, "any") for f in range(1, d)]
    patterns += [(f, e, "any") for e in range(1, t + 1) for f in range(0, d - 2 * e + 1)]
    patterns = [patterns[i] for i in rng.permutation(len(patterns))]
    words, erased, info = _errata_block(rng, code, patterns)
    forney.clear()
    assert _decodes_to(code, words, erased, info)
    expected = sum(f + e if e else (erased[row, : code.k]).sum()
                   for row, (f, e, _) in enumerate(patterns))
    assert forney == [(max(f + e for f, e, _ in patterns), expected)]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_past_capacity_rows_match_scalar_oracle(m):
    # rows past capacity, 2e + f > n - k (more than n - k erasures among
    # them), at a small, a middle and a large k: each decodes or fails as
    # the scalar oracle says, with or without the re-check and the
    # max(e + f) Horner truncation deciding it
    rng = np.random.default_rng(50 + m)
    n = (1 << m) - 1
    for k in (1, n // 2 | 1, n - 2):
        code = RsCode(n, k)
        d = n - k
        patterns = []
        for _ in range(40 if m < 7 else 12):
            f = int(rng.integers(0, min(d + 2, n) + 1))
            low = min(max(0, (d - f) // 2 + 1), n - f)
            patterns.append((f, int(rng.integers(low, min(low + 3, n - f) + 1)), "any"))
        words, erased, _ = _errata_block(rng, code, patterns)
        out, ok = _decode(code, words, erased)
        for word, flags, got, good in zip(words, erased, out, ok):
            expected = rs_decode(n, k, word, np.flatnonzero(flags))
            assert (got.tolist() if good else None) == expected


def test_decode_validates_inputs():
    code = RsCode(7, 3)  # n*m = 21 bits per word
    clean = np.zeros((2, 21), dtype=np.uint8)
    none = np.zeros((2, 7), dtype=bool)
    for bits, erased in [
        (np.zeros(21, dtype=np.uint8), np.zeros(7, dtype=bool)),  # not a block
        (np.zeros((2, 7), dtype=np.uint8), none),  # symbols, not bits
        (np.zeros((2, 18), dtype=np.uint8), np.zeros((2, 6), dtype=bool)),  # short rows
        (clean, none[:1]),  # mask of another shape
        (clean, np.zeros((2, 21), dtype=bool)),  # one flag per bit, not per symbol
        (clean, none.astype(np.int64)),  # mask not boolean
        (np.where(np.arange(21) == 2, 2, clean), none),  # bit above 1
        (np.where(np.arange(21) == 2, -1, clean), none),  # negative bit
        (np.where(np.arange(21) == 2, 0.4, clean), none),  # fractional bit
    ]:
        with pytest.raises(ParameterError):
            decode_block(code, bits, erased)
    out, ok = decode_block(code, clean, none)
    assert out.shape == (2, 9) and out.dtype == np.uint8 and ok.all()


def test_decode_block_of_no_rows():
    # the harness decodes a (0, n*m) block when no codeword of a block is
    # left to the decoder with a wrong bit
    code = RsCode(15, 9)
    out, ok = decode_block(code, np.zeros((0, 60), dtype=np.uint8), np.zeros((0, 15), dtype=bool))
    assert out.shape == (0, 36)
    assert ok.shape == (0,) and ok.dtype == bool
