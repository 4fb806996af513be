"""Independent oracles for the tests: GF(2^m) arithmetic by shift-and-xor
multiplication modulo the field's primitive polynomial, the Reed-Solomon
generator polynomial built on it, a scalar errors-and-erasures decoder on
log/exp tables built from that multiplication, and the code search by
brute force."""

from fractions import Fraction
from functools import lru_cache

from rscatter.channel import post_decode_error_rate
from rscatter.gf2m import PRIMITIVE_POLYS
from rscatter.rscodec import ADMISSIBLE_N, RsCode


def gf_mul(m, a, b):
    """a * b in GF(2^m), one shift and conditional reduction per bit of b."""
    a, b = int(a), int(b)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= PRIMITIVE_POLYS[m]
    return out


def gf_pow(m, a, e):
    """a**e in GF(2^m) for e >= 0, by repeated multiplication."""
    out = 1
    for _ in range(e):
        out = gf_mul(m, out, a)
    return out


def poly_eval(m, coeffs, x):
    """A polynomial with descending coefficients at x, by Horner's rule."""
    acc = 0
    for c in coeffs:
        acc = gf_mul(m, acc, x) ^ int(c)
    return acc


def generator_poly(m, d):
    """g(x) = prod_{i=1}^{d} (x - alpha^i) with alpha = 2, descending
    coefficients: root r turns g(x) into x g(x) + r g(x)."""
    g = [1]
    root = 1
    for _ in range(d):
        root = gf_mul(m, root, 2)
        g = [a ^ gf_mul(m, root, b) for a, b in zip(g + [0], [0] + g)]
    return g


@lru_cache(maxsize=None)
def _log_exp(m):
    """GF(2^m)'s log (a dict) and exp (a list) tables, from repeated
    multiplication by alpha = 2."""
    exp = [1]
    for _ in range((1 << m) - 2):
        exp.append(gf_mul(m, exp[-1], 2))
    return {v: i for i, v in enumerate(exp)}, exp


def _mul(m, a, b):
    log, exp = _log_exp(m)
    return exp[(log[a] + log[b]) % len(exp)] if a and b else 0


def _div(m, a, b):
    """a / b for nonzero b."""
    log, exp = _log_exp(m)
    return exp[(log[a] - log[b]) % len(exp)] if a else 0


def _horner(m, coeffs, x):
    """A polynomial with descending coefficients at x."""
    acc = 0
    for c in coeffs:
        acc = _mul(m, acc, x) ^ c
    return acc


def _poly_mul(m, a, b):
    """Product of two ascending-coefficient polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] ^= _mul(m, ca, cb)
    return out


def _berlekamp_massey(m, seq):
    """Minimal LFSR (ascending coefficients, lam[0] = 1) for seq."""
    lam, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for r, s in enumerate(seq):
        disc = s
        for i in range(1, min(length, len(lam) - 1) + 1):
            disc ^= _mul(m, lam[i], seq[r - i])
        if disc == 0:
            shift += 1
            continue
        scale = _div(m, disc, prev_disc)
        update = [0] * shift + [_mul(m, scale, c) for c in prev]
        merged = [0] * max(len(lam), len(update))
        for i, c in enumerate(lam):
            merged[i] ^= c
        for i, c in enumerate(update):
            merged[i] ^= c
        if 2 * length <= r:
            prev, prev_disc, length, shift = lam, disc, r + 1 - length, 1
        else:
            shift += 1
        lam = merged
    while len(lam) > 1 and lam[-1] == 0:
        lam.pop()
    return lam


def rs_decode(n, k, received, erasures=()):
    """Scalar errors-and-erasures decoder of the narrow-sense RS(n, k)
    code: the k info symbols of an n-symbol word, or None on failure.

    Syndromes S_j = r(alpha^j), j = 1..n-k; Berlekamp-Massey on the Forney
    syndromes; the Chien search for the roots of the errata locator Psi at
    X_i^-1 = alpha^(i+1), and Forney's magnitudes Omega / Psi' there.
    """
    m, d = n.bit_length(), n - k
    _, exp = _log_exp(m)
    word = [int(v) for v in received]
    erasures = sorted(set(int(p) for p in erasures))
    f = len(erasures)
    if f > d:
        return None
    synd = [_horner(m, word, exp[j % n]) for j in range(1, d + 1)]
    if not any(synd):
        return word[:k]
    gamma = [1]
    for pos in erasures:
        gamma = _poly_mul(m, gamma, [1, exp[n - 1 - pos]])
    lam = _berlekamp_massey(m, _poly_mul(m, gamma, synd)[f:d])
    if 2 * (len(lam) - 1) > d - f:
        return None
    psi = _poly_mul(m, lam, gamma)
    omega = _poly_mul(m, synd, psi)[:d]
    deriv = [c if j % 2 else 0 for j, c in enumerate(psi)][1:]
    roots = [i for i in range(n) if _horner(m, psi[::-1], exp[(i + 1) % n]) == 0]
    if len(roots) != len(psi) - 1:
        return None
    for i in roots:
        x = exp[(i + 1) % n]
        den = _horner(m, deriv[::-1], x)
        if den == 0:
            return None
        word[i] ^= _div(m, _horner(m, omega[::-1], x), den)
    if any(_horner(m, word, exp[j % n]) for j in range(1, d + 1)):
        return None
    return word[:k]


def brute_force_search(p_s, pe_threshold):
    """The code search by brute force: score all 119 admissible (n, k) pairs
    with the search's predictor and keep the feasible ones.

    Returns the feasible (n, k, pe) of greatest rate k/n, ties to larger n
    (None if no pair is feasible), every feasible (n, k, pe), and the least
    p_e of all pairs.
    """
    scored = [(n, k, post_decode_error_rate(RsCode(n, k), p_s))
              for n in ADMISSIBLE_N for k in range(1, n - 1, 2)]
    feasible = [s for s in scored if s[2] <= pe_threshold]
    best = max(feasible, key=lambda s: (Fraction(s[1], s[0]), s[0]), default=None)
    return best, feasible, min(s[2] for s in scored)
