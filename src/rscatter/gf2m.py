"""GF(2^m) log/antilog tables for m in 3..7, one pair per field.

These fields are the symbol alphabets of the supported Reed-Solomon codes
(n = 2^m - 1, so GF(8) up to GF(128)).
"""

from functools import lru_cache

import numpy as np

from .errors import ParameterError

# Minimal-weight primitive polynomials, one fixed polynomial per field so
# codewords are bit-exact across implementations.
#   m=3: x^3+x+1, m=4: x^4+x+1, m=5: x^5+x^2+1, m=6: x^6+x+1, m=7: x^7+x^3+1
PRIMITIVE_POLYS = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
}


@lru_cache(maxsize=None)
def tables(m):
    """GF(2^m)'s log and exp tables as read-only numpy arrays (log, expt).

    With n = 2^m - 1, expt[e] = alpha^e for e in 0..2n-1 (the powers are
    stored twice) and expt is zero from 2n to 4n.  log[a] is the log of a
    nonzero a, and log[0] = 2n points into that zero block, so
    expt[log[a] + log[b]] is the product of any two symbols a, b, and
    expt[log[a] + n - log[b]] their quotient for nonzero b.
    """
    if m not in PRIMITIVE_POLYS:
        raise ParameterError(f"m must be one of {sorted(PRIMITIVE_POLYS)}, got {m}")
    poly = PRIMITIVE_POLYS[m]
    size = 1 << m
    n = size - 1
    log = np.full(size, 2 * n)
    expt = np.zeros(4 * n + 1, dtype=np.uint8)
    x = 1
    for i in range(n):
        if log[x] != 2 * n:
            raise ParameterError(f"polynomial {poly:#b} is not primitive for m={m}")
        log[x] = i
        expt[i] = expt[i + n] = x
        x <<= 1
        if x & size:
            x ^= poly
    if x != 1:
        raise ParameterError(f"generator does not have period {n} for m={m}")
    log.flags.writeable = expt.flags.writeable = False
    return log, expt
