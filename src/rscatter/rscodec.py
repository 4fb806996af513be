"""Systematic Reed-Solomon encoder and errors-and-erasures decoder.

Codes are narrow-sense (parity-check roots alpha^1..alpha^(n-k)) over
GF(2^m) with n = 2^m - 1, m in 3..7, and odd k so that n - k is even and
t = (n - k) / 2 exactly.  Encoding is on the binary image of the code: the
parity bits are the info bits times a fixed 0/1 matrix over GF(2), built in
one shot from the closed Cauchy form of the code's systematic generator
(Roth and Seroussi, IEEE Trans. IT 31(6), 1985).  Decoding takes the
syndromes S_j = r(alpha^j) straight from the field tables, then runs
Berlekamp-Massey on Forney syndromes with erasure handling, and a Chien
search and Forney's formula on arrays.  A decode failure is reported as
None, never guessed.

All field arithmetic is lookups in the one pair of log/exp tables that
`gf2m.tables` builds per field: numpy indexing for the array steps, and the
same tables as Python lists for the scalar core (Berlekamp-Massey and the
polynomial products).  This module also owns the one symbol/bit layout of
the package, m bits per symbol, most significant first
(`bits_to_symbols`, `symbols_to_bits`).
"""

from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
from .gf2m import PRIMITIVE_POLYS, tables

ADMISSIBLE_N = tuple((1 << m) - 1 for m in sorted(PRIMITIVE_POLYS))


@lru_cache(maxsize=None)
def _lookups(m):
    """The field's (log, expt) tables as Python lists, for the scalar core:
    a list index is cheaper than a numpy one on single symbols."""
    return tuple(table.tolist() for table in tables(m))


def _bit_weights(m):
    """Place values of a symbol's m bits, most significant first: the one
    symbol/bit layout.  An m with no field raises ParameterError."""
    tables(m)
    return 1 << np.arange(m - 1, -1, -1)


def _in_range(values, top, what):
    """values as an array; ParameterError unless every entry is in 0..top."""
    values = np.asarray(values)
    if not ((values >= 0) & (values <= top)).all():
        raise ParameterError(f"{what} must be in 0..{top}")
    return values


def bits_to_symbols(bits, m):
    """Big-endian grouping of m bits per symbol; final group zero-padded."""
    weights = _bit_weights(m)
    bits = _in_range(bits, 1, "bits").astype(np.uint8)
    pad = (-bits.size) % m
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits.reshape(-1, m) @ weights


def symbols_to_bits(symbols, m):
    """Inverse of bits_to_symbols (padding bits are kept; the frame length
    field is what lets a parser strip them)."""
    weights = _bit_weights(m)
    symbols = _in_range(symbols, (1 << m) - 1, f"GF(2^{m}) symbols").astype(np.int64)
    return ((symbols[..., None] & weights) != 0).astype(np.uint8).ravel()


class RsCode:
    """An (n, k) Reed-Solomon code with derived correction capability t."""

    def __init__(self, n, k):
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
    def _position_powers(self):
        """Entry [j, i] is j * (i + 1) mod n, the log of X_i^-j for the
        locator X_i = alpha^(n-1-i) of position i, for j = 0..n-k."""
        return np.arange(self.n - self.k + 1)[:, None] * np.arange(1, self.n + 1) % self.n

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
        entry.  Every product is a sum of logs.
        """
        n, m, k = self.n, self.m, self.k
        log, expt = self._tables
        lx = np.arange(n - 1, -1, -1)  # log X_i
        # log(X_i + X_q) for every position i and parity position q; the sum
        # is 0 only on the diagonal of the parity rows, where its log is 2n
        ls = log[expt[lx[:, None]] ^ expt[lx[k:]]]
        la = ls[:k].sum(axis=1)  # log A_i
        lb = ls[k:].sum(axis=1) - 2 * n  # log B_p, without the diagonal
        lp = (lx[:k, None] + la[:, None] - lx[k:] - lb - ls[:k]) % n
        # both logs are below n, so their sum stays inside the doubled table
        values = expt[lp[:, None, :] + log[_bit_weights(m)][:, None]]  # (k, m, n-k)
        # the bits of every symbol value, looked up rather than computed
        # per entry, so the expansion needs no int64 temporary
        bits = symbols_to_bits(np.arange(n + 1), m).reshape(n + 1, m)[values]
        return bits.reshape(k * m, (n - k) * m).astype(np.float32)

    def __repr__(self):
        return f"RsCode(n={self.n}, k={self.k})"


def encode(code, info):
    """Systematic encode: codeword = info || remainder(x^(n-k) u(x), g(x))."""
    info = list(info)
    if len(info) != code.k:
        raise ParameterError(f"info must have exactly {code.k} symbols, got {len(info)}")
    cw_bits = encode_bits(code, symbols_to_bits(info, code.m).reshape(1, -1))
    return bits_to_symbols(cw_bits, code.m).tolist()


def encode_bits(code, info_bits):
    """Systematic encode of many words on the binary image of the code.

    `info_bits` has shape (blocks, k*m): each row is k info symbols, m bits
    per symbol, most significant bit first.  The result, of shape
    (blocks, n*m) and dtype uint8, is each row followed by its parity bits.
    """
    info_bits = np.asarray(info_bits)
    width = code.k * code.m
    if info_bits.ndim != 2 or info_bits.shape[1] != width:
        raise ParameterError(f"info_bits must have shape (blocks, {width})")
    if info_bits.size and (info_bits.min() < 0 or info_bits.max() > 1):
        raise ParameterError("info_bits must be 0 or 1")
    info_bits = info_bits.astype(np.uint8, copy=False)
    # float32 sums are exact: each is at most k*m <= 875 < 2**24
    parity = info_bits.astype(np.float32) @ code.binary_generator
    parity_bits = (parity.astype(np.uint16) & 1).astype(np.uint8)
    return np.concatenate([info_bits, parity_bits], axis=1)


def _syndromes(code, words):
    """S_1..S_(n-k) of one n-symbol word, or of each row of a (rows, n)
    array: S_j = r(alpha^j) = sum_i r_i X_i^j, where the log of X_i^j is
    n minus row j of the position powers."""
    log, expt = code._tables
    # a nonzero symbol's index is below 2n, inside the doubled exp table;
    # a zero's (log 2n) is at most 3n, inside the zero block
    powers = log[words][..., None, :] + code.n - code._position_powers[1:]
    return np.bitwise_xor.reduce(expt[powers], axis=-1)


def _berlekamp_massey(lookups, seq):
    """Minimal LFSR (ascending coefficients, lam[0] = 1) for seq."""
    log, expt = lookups
    n = len(log) - 1
    lam = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for r, s in enumerate(seq):
        disc = s
        for i in range(1, min(length, len(lam) - 1) + 1):
            disc ^= expt[log[lam[i]] + log[seq[r - i]]]
        if disc == 0:
            shift += 1
            continue
        # log of disc / prev_disc, reduced mod n so that adding the log of
        # a nonzero coefficient stays inside the doubled exp table
        scale = (log[disc] - log[prev_disc]) % n
        update = [0] * shift + [expt[scale + log[c]] for c in prev]
        merged = [0] * max(len(lam), len(update))
        for i, c in enumerate(lam):
            merged[i] ^= c
        for i, c in enumerate(update):
            merged[i] ^= c
        if 2 * length <= r:
            prev = lam
            prev_disc = disc
            length = r + 1 - length
            shift = 1
        else:
            shift += 1
        lam = merged
    while len(lam) > 1 and lam[-1] == 0:
        lam.pop()
    return lam


def _poly_mul_asc(lookups, a, b):
    log, expt = lookups
    log_b = [log[c] for c in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        log_a = log[ca]
        for j, lb in enumerate(log_b):
            out[i + j] ^= expt[log_a + lb]
    return out


def _eval_at_positions(code, polys):
    """Ascending-coefficient polynomials of degree <= n-k at the inverse
    locator of every position, all at once: row r of the result holds
    polys[r] at positions 0..n-1."""
    log, expt = code._tables
    size = max(len(p) for p in polys)
    coeffs = np.array([p + [0] * (size - len(p)) for p in polys])
    powers = code._position_powers[:size]
    return np.bitwise_xor.reduce(expt[log[coeffs][:, :, None] + powers], axis=1)


def decode(code, received, erasures=()):
    """Decode an n-symbol word; returns the k info symbols or None on failure.

    Corrects any pattern with 2e + f <= n - k, where f = |erasures| and e is
    the number of symbol errors at unknown positions.  Beyond that the call
    either returns None or (undetectably) a wrong codeword; the caller is
    expected to CRC-check.
    """
    received = list(received)
    if len(received) != code.n:
        raise ParameterError(f"received must have {code.n} symbols, got {len(received)}")
    erasures = sorted(set(int(p) for p in erasures))
    if erasures and (erasures[0] < 0 or erasures[-1] >= code.n):
        raise ParameterError("erasure position out of range")
    if min(received) < 0 or max(received) > code.n:
        raise ParameterError(f"received symbols must be in 0..{code.n}")
    d = code.n - code.k
    f = len(erasures)
    if f > d:
        return None

    word = np.array(received, dtype=np.int64)
    synd = _syndromes(code, word)
    if not synd.any():
        return received[:code.k]
    synd = synd.tolist()

    # erasure locator Gamma(x) = prod (1 + X_i x), ascending coefficients;
    # position i holds the coefficient of x^(n-1-i), so X_i = alpha^(n-1-i)
    lookups = _lookups(code.m)
    gamma = [1]
    for pos in erasures:
        gamma = _poly_mul_asc(lookups, gamma, [1, lookups[1][code.n - 1 - pos]])

    # Forney syndromes: coefficients f..d-1 of Gamma(x) S(x) carry no
    # erasure term and obey the errors-only locator
    err_seq = _poly_mul_asc(lookups, gamma, synd)[f:d]

    lam = _berlekamp_massey(lookups, err_seq)
    e = len(lam) - 1
    if 2 * e > d - f:
        return None

    psi = _poly_mul_asc(lookups, lam, gamma)  # joint errata locator
    # Forney's evaluator Omega = S(x) Psi(x) mod x^d, and the formal
    # derivative of Psi, which keeps its odd terms only
    omega = _poly_mul_asc(lookups, synd, psi)[:d]
    deriv = [c if j % 2 else 0 for j, c in enumerate(psi)][1:]

    # Chien search for the roots of Psi, then the Forney magnitudes
    # Omega(X^-1) / Psi'(X^-1) at them
    values = _eval_at_positions(code, [psi, omega, deriv])
    roots = np.flatnonzero(values[0] == 0)
    if roots.size != len(psi) - 1:
        return None
    num, den = values[1:, roots]
    if not den.all():
        return None
    log, expt = code._tables
    word[roots] ^= expt[log[num] + code.n - log[den]]

    if _syndromes(code, word).any():
        return None
    return word[:code.k].tolist()
