"""Systematic Reed-Solomon encoder and errors-and-erasures decoder.

Codes are narrow-sense (parity-check roots alpha^1..alpha^(n-k)) over
GF(2^m) with n = 2^m - 1, m in 3..7, and odd k so that n - k is even and
t = (n - k) / 2 exactly.  Encoding is by generator-polynomial remainder,
computed on the binary image of the code: the parity bits are the info bits
times a fixed 0/1 matrix over GF(2).  Decoding is Berlekamp-Massey on
Forney syndromes with erasure handling.  A decode failure is reported as
None, never guessed.
"""

from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
from .gf2m import FieldContext, PRIMITIVE_POLYS

ADMISSIBLE_N = tuple((1 << m) - 1 for m in sorted(PRIMITIVE_POLYS))


@lru_cache(maxsize=None)
def _shared_field(m):
    return FieldContext(m)


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
        self.field = _shared_field(self.m)
        self._generator = self._build_generator()

    def _build_generator(self):
        """g(x) = prod_{i=1}^{n-k} (x - alpha^i), descending coefficients."""
        gf = self.field
        g = [1]
        for i in range(1, self.n - self.k + 1):
            root = gf.exp(i)
            nxt = [0] * (len(g) + 1)
            for j, c in enumerate(g):
                nxt[j] ^= c
                nxt[j + 1] ^= gf.mul(c, root)
            g = nxt
        return g

    @cached_property
    def binary_generator(self):
        """Parity part of the binary image, a (k*m, (n-k)*m) 0/1 float32 matrix.

        Row i*m + b holds the parity bits of the codeword whose only nonzero
        info bit is bit b (MSB first) of symbol i.  That symbol is the
        coefficient of x^(n-1-i), so its parity is the symbol times
        x^(n-1-i) mod g(x), from x^(e+1) mod g = x * (x^e mod g) starting at
        x^(n-k) mod g = g(x) - x^(n-k).
        """
        m, d = self.m, self.n - self.k
        log = np.asarray(self.field.log_table)
        expt = np.asarray(self.field.exp_table, dtype=np.uint8)
        low = np.asarray(self._generator[1:])
        values = np.arange(1 << m)[:, None]
        # times_low[v] = v * (g(x) - x^(n-k)) for every symbol value v
        times_low = np.where((values > 0) & (low > 0), expt[log[values] + log[low]], 0)
        # rem[i, b]: descending coefficients of 2^(m-1-b) x^(n-1-i) mod g
        rem = np.empty((self.k, m, d), dtype=np.uint8)
        rem[-1] = times_low[1 << np.arange(m - 1, -1, -1)]
        for i in range(self.k - 2, -1, -1):
            rem[i, :, :-1] = rem[i + 1, :, 1:]
            rem[i, :, -1] = 0
            rem[i] ^= times_low[rem[i + 1, :, 0]]
        bits = (rem[..., None] >> np.arange(m - 1, -1, -1, dtype=np.uint8)) & 1
        return bits.reshape(self.k * m, d * m).astype(np.float32)

    @property
    def rate(self):
        return self.k / self.n

    def __repr__(self):
        return f"RsCode(n={self.n}, k={self.k})"

    def __eq__(self, other):
        return isinstance(other, RsCode) and (self.n, self.k) == (other.n, other.k)

    def __hash__(self):
        return hash((self.n, self.k))

    # position i in a codeword holds the coefficient of x^(n-1-i), so its
    # locator is alpha^(n-1-i)
    def _locator(self, position):
        return self.field.exp(self.n - 1 - position)


def encode(code, info):
    """Systematic encode: codeword = info || remainder(x^(n-k) u(x), g(x))."""
    info = list(info)
    if len(info) != code.k:
        raise ParameterError(f"info must have exactly {code.k} symbols, got {len(info)}")
    for s in info:
        if not (0 <= s < code.n + 1):
            raise ParameterError(f"symbol {s} out of range for GF(2^{code.m})")
    shifts = np.arange(code.m - 1, -1, -1)
    bits = (np.array(info, dtype=np.int64)[:, None] >> shifts) & 1
    cw_bits = encode_bits(code, bits.reshape(1, -1))
    return (cw_bits.reshape(code.n, code.m) @ (1 << shifts)).tolist()


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


def _syndromes(code, received):
    gf = code.field
    out = []
    for i in range(1, code.n - code.k + 1):
        root = gf.exp(i)
        acc = 0
        for sym in received:
            acc = gf.mul(acc, root) ^ sym
        out.append(acc)
    return out


def _berlekamp_massey(gf, seq):
    """Minimal LFSR (ascending coefficients, lam[0] = 1) for seq."""
    lam = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for r, s in enumerate(seq):
        disc = s
        for i in range(1, length + 1):
            if i < len(lam):
                disc ^= gf.mul(lam[i], seq[r - i])
        if disc == 0:
            shift += 1
            continue
        scale = gf.div(disc, prev_disc)
        update = [0] * shift + [gf.mul(scale, c) for c in prev]
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
    return lam, length


def _poly_mul_asc(gf, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] ^= gf.mul(ca, cb)
    return out


def _poly_eval_asc(gf, poly, x):
    acc = 0
    for c in reversed(poly):
        acc = gf.mul(acc, x) ^ c
    return acc


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
    gf = code.field
    d = code.n - code.k
    f = len(erasures)
    if f > d:
        return None

    synd = _syndromes(code, received)
    if not any(synd):
        return received[:code.k]

    # erasure locator Gamma(x) = prod (1 + X_i x), ascending coefficients
    gamma = [1]
    for pos in erasures:
        gamma = _poly_mul_asc(gf, gamma, [1, code._locator(pos)])

    # Forney syndromes: remove the erasure contribution; the first d - f
    # entries then obey the errors-only locator.
    fsynd = list(synd)
    for pos in erasures:
        x = code._locator(pos)
        for j in range(d - 1):
            fsynd[j] = gf.mul(fsynd[j], x) ^ fsynd[j + 1]
    err_seq = fsynd[: d - f]

    lam, _ = _berlekamp_massey(gf, err_seq)
    e = len(lam) - 1
    if 2 * e > d - f:
        return None

    psi = _poly_mul_asc(gf, lam, gamma)  # joint errata locator

    # Chien search over all positions
    roots = [
        i for i in range(code.n)
        if _poly_eval_asc(gf, psi, gf.inv(code._locator(i))) == 0
    ]
    if len(roots) != len(psi) - 1:
        return None

    # Forney magnitudes: Omega = S(x) * Psi(x) mod x^d
    omega = _poly_mul_asc(gf, synd, psi)[:d]
    corrected = list(received)
    for i in roots:
        x_inv = gf.inv(code._locator(i))
        num = _poly_eval_asc(gf, omega, x_inv)
        den = 0
        for j in range(1, len(psi), 2):  # formal derivative, odd terms only
            den ^= gf.mul(psi[j], gf.pow(x_inv, j - 1))
        if den == 0:
            return None
        corrected[i] ^= gf.div(num, den)

    if any(_syndromes(code, corrected)):
        return None
    return corrected[:code.k]
