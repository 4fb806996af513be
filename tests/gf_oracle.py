"""Independent GF(2^m) arithmetic for the tests: shift-and-xor
multiplication modulo the field's primitive polynomial, with no tables, and
the Reed-Solomon generator polynomial built on it."""

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


def generator_poly(m, d):
    """g(x) = prod_{i=1}^{d} (x - alpha^i) with alpha = 2, descending
    coefficients: root r turns g(x) into x g(x) + r g(x)."""
    g = [1]
    root = 1
    for _ in range(d):
        root = gf_mul(m, root, 2)
        g = [a ^ gf_mul(m, root, b) for a, b in zip(g + [0], [0] + g)]
    return g
