"""Independent GF(2^m) arithmetic for the tests: shift-and-xor
multiplication modulo the field's primitive polynomial, with no tables."""

from rscatter.gf2m import PRIMITIVE_POLYS


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
