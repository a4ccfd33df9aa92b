"""Truncated Laurent series with exact rational coefficients.

A series is a pair ``(off, coeffs)`` meaning ``sum coeffs[m] * x**(off+m)``,
truncated consistently at a common order.  Used for pole expansions of ODE
coefficient matrices at the regular singular points.
"""

from fractions import Fraction
from math import factorial

Q = Fraction


class LSeries:
    __slots__ = ("off", "c")

    def __init__(self, off, coeffs):
        self.off = off
        self.c = list(coeffs)
        self._normalize()

    def _normalize(self):
        while self.c and self.c[0] == 0:
            self.c.pop(0)
            self.off += 1
        if not self.c:
            self.off = 0

    @classmethod
    def const(cls, value, order):
        return cls(0, [Q(value)] + [Q(0)] * (order - 1))

    def __add__(self, other):
        if not self.c:
            return LSeries(other.off, other.c)
        if not other.c:
            return LSeries(self.off, self.c)
        off = min(self.off, other.off)
        # truncation: valid up to min over both of off+len
        top = min(self.off + len(self.c), other.off + len(other.c))
        n = top - off
        out = [Q(0)] * n
        for i, v in enumerate(self.c):
            k = self.off + i - off
            if 0 <= k < n:
                out[k] += v
        for i, v in enumerate(other.c):
            k = other.off + i - off
            if 0 <= k < n:
                out[k] += v
        return LSeries(off, out)

    def __neg__(self):
        return LSeries(self.off, [-v for v in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LSeries):  # an exact scalar
            return LSeries(self.off, [other * v for v in self.c])
        if not self.c or not other.c:
            return LSeries(0, [])
        n = min(len(self.c), len(other.c))
        out = [Q(0)] * n
        for i in range(n):
            for j in range(n - i):
                out[i + j] += self.c[i] * other.c[j]
        return LSeries(self.off + other.off, out)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse (leading coefficient must be nonzero)."""
        if not self.c or self.c[0] == 0:
            raise ZeroDivisionError("series has zero leading coefficient")
        n = len(self.c)
        out = [Q(0)] * n
        out[0] = 1 / self.c[0]
        for k in range(1, n):
            s = Q(0)
            for j in range(1, k + 1):
                s += self.c[j] * out[k - j]
            out[k] = -s / self.c[0]
        return LSeries(-self.off, out)

    def power(self, p):
        """Integer power (negative allowed)."""
        if p == 0:
            return LSeries.const(1, max(len(self.c), 1))
        base = self if p > 0 else self.inv()
        out = base
        for _ in range(abs(p) - 1):
            out = out * base
        return out

    def coeff(self, k):
        """Coefficient of x**k."""
        i = k - self.off
        if 0 <= i < len(self.c):
            return self.c[i]
        return Q(0)

    def min_order(self):
        return self.off if self.c else None


def sin_series(order):
    c = [Q(0)] * order
    for m in range(order):
        if m % 2 == 1:
            c[m] = Q((-1) ** ((m - 1) // 2), factorial(m))
    return LSeries(0, c)


def scaled_arg(series_fn, scale, order):
    """Series of f(scale*x) from the Maclaurin series of f."""
    s = series_fn(order)
    return LSeries(s.off, [v * Q(scale) ** (s.off + i) for i, v in enumerate(s.c)])
