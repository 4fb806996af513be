"""GF(2^m) arithmetic on log/antilog tables for m in 3..7.

These fields are the symbol alphabets of the supported Reed-Solomon codes
(n = 2^m - 1, so GF(8) up to GF(128)).
"""

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

MIN_M = 3
MAX_M = 7


class FieldContext:
    """Immutable GF(2^m) context with precomputed exp/log tables.

    The exp table is stored doubled so products of two logs index it
    without a modulo in the hot path.
    """

    def __init__(self, m):
        if m not in PRIMITIVE_POLYS:
            raise ParameterError(f"m must be in {MIN_M}..{MAX_M}, got {m}")
        self.m = m
        self.primitive_poly = PRIMITIVE_POLYS[m]
        self.size = 1 << m
        self.order = self.size - 1  # number of nonzero elements
        self.exp_table = [0] * (2 * self.order)
        self.log_table = [0] * self.size
        self._build_tables()

    def _build_tables(self):
        x = 1
        seen = set()
        for i in range(self.order):
            if x in seen:
                raise ParameterError(
                    f"polynomial {self.primitive_poly:#b} is not primitive for m={self.m}"
                )
            seen.add(x)
            self.exp_table[i] = x
            self.log_table[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.primitive_poly
        if x != 1:
            raise ParameterError(
                f"generator does not have period {self.order} for m={self.m}"
            )
        for i in range(self.order, 2 * self.order):
            self.exp_table[i] = self.exp_table[i - self.order]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self.exp_table[self.log_table[a] - self.log_table[b] + self.order]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self.exp_table[self.order - self.log_table[a]]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no negative power")
            return 0
        return self.exp_table[(self.log_table[a] * e) % self.order + self.order]

    def exp(self, e):
        """alpha**e for the field generator alpha."""
        return self.exp_table[e % self.order + self.order]

    def log(self, a):
        if a == 0:
            raise ZeroDivisionError("log(0) is undefined")
        return self.log_table[a]

    def __repr__(self):
        return f"FieldContext(m={self.m}, poly={self.primitive_poly:#b})"
