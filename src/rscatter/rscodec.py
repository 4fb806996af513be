"""Systematic Reed-Solomon encoder and errors-and-erasures decoder.

Codes are narrow-sense (parity-check roots alpha^1..alpha^(n-k)) over
GF(2^m) with n = 2^m - 1, m in 3..7, and odd k so that n - k is even and
t = (n - k) / 2 exactly.  The codec takes blocks of bits only, m bits per
symbol: `encode_bits` encodes a (words, k*m) block of info bits, or of
j < k info symbols for the shortened words whose last k - j info symbols
are 0, and `decode_block` decodes a (words, n*m) block of received bits
with its (words, n) mask of erased symbols into (words, k*m) info bits.
A single word is a block of one row.

Encoding is on the binary image of the code: the parity bits are the info
bits times a fixed 0/1 matrix over GF(2), gathered in one take from the
field's binary multiplication table at the logs of the closed Cauchy form
of the code's systematic generator (Roth and Seroussi, IEEE Trans. IT
31(6), 1985).  Each code's logs are computed once per process and kept
as uint8; the float32 matrix is gathered per RsCode object and is not
kept beyond it.  Decoding is Forney's errors-and-erasures decoder, and it
does only the work whose result is not known in advance.  The syndromes
S_j = r(alpha^j) are on the binary image too: the received bits times the
code's check image, a 0/1 matrix gathered from the same multiplication
table.  Berlekamp-Massey runs only on the rows whose Forney syndromes are
not all zero (the rest, erasure-only words among them, have the errors
locator 1).  Such a row's roots are its erased positions, its evaluator
is the product its Forney syndromes came from, and it needs no re-check,
so it gets Forney magnitudes at its erased info positions only; the Chien
search evaluates the other rows' errata locator Psi at every position.
Forney's evaluator and Psi' are evaluated only at Psi's roots, by Horner's
rule over max(e + f) coefficients, and each magnitude is XORed into the
received bits as the bits of its symbol.  Each step runs on its rows of
the block at once, a row that has finished its own steps masked out; a
decode failure is reported, never guessed.

All field arithmetic is numpy indexing into the one pair of log/exp tables
that `gf2m.tables` builds per field.  This module also owns the one
symbol/bit layout of the package, m bits per symbol, most significant first
(`bits_to_symbols`, `symbols_to_bits`).
"""

import numbers
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
from .gf2m import PRIMITIVE_POLYS, tables

ADMISSIBLE_N = tuple((1 << m) - 1 for m in sorted(PRIMITIVE_POLYS))


def _bit_weights(m):
    """Place values of a symbol's m bits, most significant first: the one
    symbol/bit layout.  An m with no field raises ParameterError."""
    tables(m)
    return 1 << np.arange(m - 1, -1, -1)


def _in_range(values, top, what):
    """values as an array; ParameterError unless every entry is a whole
    number in 0..top.  Only a non-integer dtype is checked for fractions."""
    values = np.asarray(values)
    whole = values.dtype.kind in "biu" or (values == np.trunc(values)).all()
    if not (whole and ((values >= 0) & (values <= top)).all()):
        raise ParameterError(f"{what} must be whole numbers in 0..{top}")
    return values


def bits_to_symbols(bits, m):
    """Big-endian grouping of m bits per symbol, flattened, as uint8; each
    row (the last axis) must hold whole symbols."""
    tables(m)
    bits = _in_range(bits, 1, "bits").astype(np.uint8, copy=False)
    width = bits.shape[-1] if bits.ndim else bits.size
    if width % m:
        raise ParameterError(f"{width} bits per row are not whole {m}-bit symbols")
    # shift-or over the m bit columns: numpy has no fast integer matmul
    cols = bits.reshape(-1, m)
    symbols = cols[:, 0].copy()
    for b in range(1, m):
        symbols <<= 1
        symbols |= cols[:, b]
    return symbols


def symbols_to_bits(symbols, m):
    """Inverse of bits_to_symbols: m bits per symbol, most significant
    first, flattened."""
    table = _symbol_bits(m)
    symbols = _in_range(symbols, (1 << m) - 1, f"GF(2^{m}) symbols")
    return np.take(table, symbols.astype(np.intp, copy=False), axis=0).ravel()


@lru_cache(maxsize=None)
def _symbol_bits(m):
    """Bits of every symbol of GF(2^m), a (2^m, m) read-only uint8 array:
    row s holds the bits of s, most significant first."""
    table = ((np.arange(1 << m)[:, None] & _bit_weights(m)) != 0).astype(np.uint8)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _mul_image(m):
    """Binary image of multiplication in GF(2^m), an (m, n, m) read-only
    float32 array: entry [b, l, c] is bit c (most significant first) of
    2^(m-1-b) * alpha^l, the product of the element alpha^l with bit b of
    a symbol."""
    log, expt = tables(m)
    weights = _bit_weights(m)
    # (m, n); both logs are below n, so their sum stays inside the doubled table
    values = expt[log[weights][:, None] + np.arange((1 << m) - 1)]
    image = ((values[..., None] & weights) != 0).astype(np.float32)
    image.flags.writeable = False
    return image


def _binary_image(m, logs):
    """Binary image of the (rows, cols) matrix of field elements
    alpha^logs (each log in 0..n-1), a (rows*m, cols*m) read-only 0/1
    float32 matrix: row i*m + b holds, in columns j*m..j*m+m-1, the bits of
    2^(m-1-b) * alpha^logs[i, j].  It is one take of _mul_image read as m*n
    rows of m bits, row b*n + l, at the (rows, m, cols) indices
    b*n + logs[i, j], which lands in the (i, b, j, c) layout of the result.
    Read-only because a code, and so its matrices, may be shared by many
    runs."""
    rows, cols = logs.shape
    n = (1 << m) - 1
    bits = _mul_image(m).reshape(m * n, m)
    out = np.take(bits, logs[:, None, :] + n * np.arange(m)[:, None], axis=0)
    out.flags.writeable = False
    return out.reshape(rows * m, cols * m)


@lru_cache(maxsize=None)
def _generator_logs(n, k):
    """Logs of the Cauchy-form parity symbols of the (n, k) code's unit
    info words (RsCode.binary_generator), a (k, n-k) read-only uint8 array
    of values in 0..n-1.  Each code's logs are computed once per process:
    all 119 codes hold 194 KB, where the float32 images of the 63 codes at
    n = 127 alone would hold 32 MB."""
    log, expt = tables(n.bit_length())
    lx = np.arange(n - 1, -1, -1)  # log X_i
    # log(X_i + X_q) for every position i and parity position q; the sum
    # is 0 only on the diagonal of the parity rows, where its log is 2n
    ls = log[expt[lx[:, None]] ^ expt[lx[k:]]]
    la = ls[:k].sum(axis=1)  # log A_i
    lb = ls[k:].sum(axis=1) - 2 * n  # log B_p, without the diagonal
    logs = ((lx[:k, None] + la[:, None] - lx[k:] - lb - ls[:k]) % n).astype(np.uint8)
    logs.flags.writeable = False
    return logs


class RsCode:
    """An (n, k) Reed-Solomon code with derived correction capability t."""

    def __init__(self, n, k):
        for name, value in (("n", n), ("k", k)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        n, k = int(n), int(k)
        if n not in ADMISSIBLE_N:
            raise ParameterError(f"n must be one of {ADMISSIBLE_N}, got {n}")
        if not (1 <= k <= n - 2):
            raise ParameterError(f"k must satisfy 1 <= k <= n-2, got k={k}")
        if k % 2 == 0:
            raise ParameterError(f"k must be odd so that n-k is even, got k={k}")
        self.n = n
        self.k = k
        self.m = n.bit_length()
        self.t = (n - k) // 2
        self._tables = tables(self.m)

    @cached_property
    def binary_generator(self):
        """Parity part of the binary image, a (k*m, (n-k)*m) 0/1 float32 matrix.

        Row i*m + b holds the parity bits of the codeword whose only nonzero
        info bit is bit b (MSB first) of symbol i.  With locators
        X_i = alpha^(n-1-i) and parity positions P = k..n-1, the parity
        symbol at p of the unit info word at i is the Cauchy-form entry

            X_i A_i / (X_p B_p (X_i + X_p)),
            A_i = prod_{q in P} (X_i + X_q),  B_p = prod_{q in P, q != p} (X_p + X_q),

        by Lagrange interpolation of sum_p (c_p X_p) X_p^(j-1) = X_i^j for
        j = 1..n-k (Roth and Seroussi, "On generator matrices of MDS codes",
        IEEE Trans. IT 31(6), 1985).  Bit b of symbol i is the element
        2^(m-1-b), so row i*m + b holds the bits of 2^(m-1-b) times that
        entry.  Every product is a sum of logs: _generator_logs computes
        the code's logs once per process, and each RsCode gathers their
        bits afresh with _binary_image into a matrix of its own.
        """
        return _binary_image(self.m, _generator_logs(self.n, self.k))

    @cached_property
    def check_image(self):
        """Binary image of the syndrome map, an (n*m, (n-k)*m) 0/1 float32
        matrix: a word's syndrome bits are its bits times this matrix, mod 2.

        Row i*m + b holds the bits of S_1..S_(n-k) of the word whose only
        nonzero bit is bit b (MSB first) of symbol i.  That word's S_j is
        2^(m-1-b) X_i^j with X_i = alpha^(n-1-i), so, as in
        binary_generator, _binary_image gathers it at the logs of X_i^j.
        It holds n*m*(n-k)*m*4 bytes: 308 KB at RS(63,29), 3.1 MB at
        RS(127,1).
        """
        n, m, d = self.n, self.m, self.n - self.k
        # log X_i^j for position i and j = 1..n-k
        return _binary_image(m, np.arange(n - 1, -1, -1)[:, None] * np.arange(1, d + 1) % n)

    def __repr__(self):
        return f"RsCode(n={self.n}, k={self.k})"


def encode_bits(code, info_bits):
    """Systematic encode of many words on the binary image of the code.

    `info_bits` has shape (blocks, j*m) with j <= k: each row is j info
    symbols, m bits per symbol, most significant bit first, and stands for
    the word whose last k - j info symbols are 0 (the shortened code's
    word), so only the first j*m rows of the parity matrix are read.  The
    result, of shape (blocks, (j + n - k)*m) and dtype uint8, is each row
    followed by its parity bits: a whole codeword when j = k.
    """
    info_bits = np.asarray(info_bits)
    m, width = code.m, code.k * code.m
    if info_bits.ndim != 2 or info_bits.shape[1] % m or info_bits.shape[1] > width:
        raise ParameterError(f"info_bits must have shape (blocks, j*{m}) with j*{m} <= {width}")
    info_bits = _in_range(info_bits, 1, "info_bits").astype(np.uint8, copy=False)
    # float32 sums are exact: each is at most k*m <= 875 < 2**24
    parity = info_bits.astype(np.float32) @ code.binary_generator[: info_bits.shape[1]]
    parity_bits = (parity.astype(np.uint16) & 1).astype(np.uint8)
    return np.concatenate([info_bits, parity_bits], axis=1)


def _syndromes(code, bits):
    """S_1..S_(n-k) of each word of a (..., n*m) array of bits, on the
    binary image: the bits times the code's check image, mod 2, packed m
    bits per syndrome into a (..., n-k) uint8 array."""
    bits = np.asarray(bits)
    rows, d = bits.shape[:-1], code.n - code.k
    # float32 sums are exact: each is at most n*m <= 889 < 2**24
    sums = (bits.astype(np.float32) @ code.check_image).astype(np.uint16)
    return bits_to_symbols((sums & 1).astype(np.uint8), code.m).reshape(rows + (d,))


def _poly_mul(code, a, b, width):
    """Row-wise products of two blocks of ascending-coefficient
    polynomials, cut to their first `width` coefficients."""
    log, expt = code._tables
    out = np.zeros((len(a), width), dtype=np.uint8)
    log_b = log[b]
    for j in range(min(a.shape[1], width)):
        span = min(b.shape[1], width - j)
        out[:, j : j + span] ^= expt[log[a[:, j, None]] + log_b[:, :span]]
    return out


def _berlekamp_massey(code, seqs, lengths):
    """Minimal LFSR (ascending coefficients, constant term 1) of each row's
    first lengths[row] entries of seqs, in one loop of max(lengths) steps.

    A row stops after its own length and keeps its locator from then on.
    `prev` is held already multiplied by x^shift, so the scalar form's
    "shift += 1" is one multiplication by x, and "shift = 1" is x * lam.
    """
    log, expt = code._tables
    lam = np.zeros((len(seqs), lengths.max() + 1), dtype=np.uint8)
    lam[:, 0] = 1
    prev = np.zeros_like(lam)  # its constant term stays 0
    prev[:, 1:] = lam[:, :-1]
    prev_disc = np.ones(len(seqs), dtype=np.uint8)
    length = np.zeros(len(seqs), dtype=np.int64)
    for r in range(lengths.max()):
        disc = np.bitwise_xor.reduce(expt[log[lam[:, : r + 1]] + log[seqs[:, r::-1]]], axis=1)
        hit = (r < lengths) & (disc != 0)
        grow = hit & (2 * length <= r)
        # log of disc / prev_disc, reduced mod n so that adding the log of
        # a nonzero coefficient stays inside the doubled exp table
        scale = (log[disc] - log[prev_disc]) % code.n
        update = expt[scale[:, None] + log[prev]]
        prev[:, 1:] = np.where(grow[:, None], lam, prev)[:, :-1]
        lam ^= update * hit[:, None]
        prev_disc = np.where(grow, disc, prev_disc)
        length = np.where(grow, r + 1 - length, length)
    return lam


def _eval_at(code, polys, log_x):
    """Ascending-coefficient polynomials (..., width) at the points
    alpha^log_x by Horner's rule; log_x broadcasts against polys' leading
    axes, and so does the result."""
    log, expt = code._tables
    acc = np.zeros(np.broadcast_shapes(polys.shape[:-1], np.shape(log_x)), dtype=np.uint8)
    for j in range(polys.shape[-1] - 1, -1, -1):
        # a zero accumulator's index is at most 3n, inside the zero block
        acc = expt[log[acc] + log_x] ^ polys[..., j]
    return acc


def decode_block(code, bits, erased):
    """Decode each row of a (W, n*m) block of received bits, m bits per
    symbol, with a (W, n) boolean mask of erased symbols.

    Returns the (W, k*m) info bits and a (W,) mask of the rows that
    decoded; a row that fails keeps its received info bits.  A row
    corrects any pattern with 2e + f <= n - k, where f is its number of
    erased symbols and e its number of symbol errors at unknown positions.
    Beyond that it either fails or (undetectably) lands on a wrong
    codeword; the caller is expected to check the result, by a CRC or,
    in simulation, against the sent bits.
    """
    bits, erased = np.asarray(bits), np.asarray(erased)
    n, k, m, d = code.n, code.k, code.m, code.n - code.k
    if bits.ndim != 2 or bits.shape[1] != n * m:
        raise ParameterError(f"bits must have shape (rows, {n * m}), got {bits.shape}")
    if erased.shape != (len(bits), n) or erased.dtype != bool:
        raise ParameterError(f"erased must be a boolean mask of shape {(len(bits), n)}")
    bits = _in_range(bits, 1, "received bits").astype(np.uint8, copy=False)
    log, expt = code._tables
    info = bits[:, : k * m].copy()
    f = erased.sum(axis=1)
    # a row whose syndromes are all zero, or that has more than n - k
    # erasures, takes none of the steps below
    synd = _syndromes(code, bits)
    ok = (f <= d) & ~synd.any(axis=1)
    rows = np.flatnonzero((f <= d) & synd.any(axis=1))
    if not rows.size:
        return info, ok
    rx, synd, f, erased = bits[rows], synd[rows], f[rows], erased[rows]

    # erasure locator Gamma(x) = prod (1 + X_i x) over each row's erased
    # positions, X_i = alpha^(n-1-i), in max(f) steps, step j touching only
    # the j + 1 coefficients it can change; a row with fewer erasures is
    # padded with the locator 0, a factor of 1
    pos = np.argsort(~erased, axis=1, kind="stable")[:, : f.max()]
    log_loc = log[np.where(np.take_along_axis(erased, pos, axis=1), expt[n - 1 - pos], 0)]
    gamma = np.zeros((len(rows), f.max() + 1), dtype=np.uint8)
    gamma[:, 0] = 1
    for j in range(f.max()):
        gamma[:, 1 : j + 2] ^= expt[log_loc[:, j, None] + log[gamma[:, : j + 1]]]

    # Forney syndromes: coefficients f..d-1 of Gamma(x) S(x) carry no
    # erasure term and obey the errors-only locator
    at = f[:, None] + np.arange(d)
    polys = np.zeros((2, len(rows), d), dtype=np.uint8)  # Omega and Psi'
    polys[0] = _poly_mul(code, gamma, synd, d)
    seqs = np.where(at < d, np.take_along_axis(polys[0], at % d, 1), 0)

    # the errata locator Psi = Gamma Lambda, of degree e + f, and its roots.
    # A row whose Forney syndromes are all zero, an erasure-only word among
    # them, has no discrepancy, so its errors locator Lambda is 1: its Psi is
    # Gamma, whose roots are its erased positions, and its evaluator Omega =
    # S(x) Psi(x) mod x^d is Gamma(x) S(x) mod x^d, of degree below f.  On
    # the other rows Berlekamp-Massey finds Lambda, and the Chien search
    # Psi's roots at every X_i^-1 = alpha^(i+1)
    psi = np.zeros((len(rows), d + 1), dtype=np.uint8)
    psi[:, : gamma.shape[1]] = gamma
    roots, good, busy = erased.copy(), np.ones(len(rows), dtype=bool), seqs.any(axis=1)
    degree = f.copy()
    if busy.any():
        lam = _berlekamp_massey(code, seqs[busy], d - f[busy])
        e = lam.shape[1] - 1 - np.argmax(lam[:, ::-1] != 0, axis=1)  # lam[:, 0] is 1
        good[busy] = 2 * e <= d - f[busy]
        degree[busy] += e
        width = int(degree[busy][good[busy]].max(initial=0)) + 1
        psi[busy, :width] = _poly_mul(code, gamma[busy], lam, width)
        roots[busy] = _eval_at(code, psi[busy, :width][:, None], np.arange(1, n + 1) % n) == 0
        good[busy] &= roots[busy].sum(axis=1) == degree[busy]

    # Forney's magnitudes Omega(X^-1) / Psi'(X^-1), Psi' keeping Psi's odd
    # terms, at the roots of the rows still good.  Psi' is nonzero there:
    # such a row's Psi has degree e + f and e + f distinct roots.  Both have
    # degree below e + f wherever the answer can pass the re-check, as the
    # corrected word is then a codeword whose errata lie at Psi's roots, so
    # Horner's rule over max(e + f) coefficients changes no row's result.
    # An erasure-only row needs no magnitude at a parity position, which
    # nothing reads
    width = int(degree[good].max(initial=0))
    checked = good & busy
    if checked.any():
        polys[0, checked, :width] = _poly_mul(code, psi[checked, :width], synd[checked], width)
    polys[1, :, ::2] = psi[:, 1::2]
    row, col = np.nonzero(roots & good[:, None] & (busy[:, None] | (np.arange(n) < k)))
    num, den = _eval_at(code, polys[:, row, :width], (col + 1) % n)
    rx.reshape(len(rows), n, m)[row, col] ^= _symbol_bits(m)[expt[log[num] + n - log[den]]]

    # an erasure-only row then meets every syndrome, as f <= n - k and RS is
    # MDS (Forney, IEEE Trans. IT 11(4), 1965): only the others are re-checked
    good[checked] = ~_syndromes(code, rx[checked]).any(axis=1)
    info[rows[good]] = rx[good, : k * m]
    ok[rows[good]] = True
    return info, ok
