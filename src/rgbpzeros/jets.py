"""Truncated Taylor series ("jets") in one complex variable.

A jet is a list ``[c0, c1, ..., cN]`` of Taylor coefficients about a base
point, so the k-th derivative is ``k! * c[k]``.  All derivative chains in
the zero pipeline are propagated through this arithmetic; nothing in the
production path is differentiated numerically.
"""

from __future__ import annotations

from typing import List

Jet = List[complex]


class JetOps:
    """Arithmetic on jets of a fixed order (number of coefficients)."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("jet order must be >= 1")
        self.order = order

    def const(self, c: complex) -> Jet:
        v = [0j] * self.order
        v[0] = complex(c)
        return v

    def variable(self, z0: complex) -> Jet:
        v = self.const(z0)
        if self.order > 1:
            v[1] = 1.0 + 0j
        return v

    def add(self, a: Jet, b: Jet) -> Jet:
        return [x + y for x, y in zip(a, b)]

    def sub(self, a: Jet, b: Jet) -> Jet:
        return [x - y for x, y in zip(a, b)]

    def scale(self, a: Jet, f: complex) -> Jet:
        return [x * f for x in a]

    def mul(self, a: Jet, b: Jet) -> Jet:
        n = self.order
        r = [0j] * n
        for i in range(n):
            s = 0j
            for k in range(i + 1):
                s += a[k] * b[i - k]
            r[i] = s
        return r

    def div(self, a: Jet, b: Jet) -> Jet:
        if b[0] == 0:
            raise ZeroDivisionError("jet division by series with zero value")
        n = self.order
        r = [0j] * n
        for i in range(n):
            s = a[i]
            for k in range(i):
                s -= r[k] * b[i - k]
            r[i] = s / b[0]
        return r

    def sqrt_with_value(self, a: Jet, v0: complex) -> Jet:
        """Square-root branch fixed by its value v0 at the base point."""
        n = self.order
        r = [0j] * n
        r[0] = complex(v0)
        for i in range(1, n):
            s = a[i]
            for k in range(1, i):
                s -= r[k] * r[i - k]
            r[i] = s / (2 * r[0])
        return r

    def integrate_from(self, da: Jet, value0: complex) -> Jet:
        """Jet whose derivative is ``da`` and whose value is ``value0``."""
        r = [complex(value0)]
        for k in range(self.order - 1):
            r.append(da[k] / (k + 1))
        return r
