"""Exact mini-algebra over span{sin^m(phi) * cos^n(phi)}.

Canonical form keeps the cosine power at most 1 (cos^2 is rewritten as
1 - sin^2) and drops zero coefficients, so equality of series is equality
of their term maps.  The algebra is closed under addition, multiplication
and d/dphi.  ``integrate`` returns the antiderivative, zero at 0, of the
series less its mean over a period, whose integral phi * mean the span
lacks; every integrand of the recursion in :mod:`rgbpzeros.lg_coeffs` has
zero mean, so there it is exact.

``evaluate_jet`` is the expansion's per-zero kernel: it groups the terms by
cos power and runs Horner in sin(phi) within each group, so every E_s costs
one jet product per sin degree rather than one per factor of every
monomial.
"""

from __future__ import annotations

import cmath
from typing import Dict, List, Tuple

Term = Tuple[int, int]  # (sin power, cos power)
# (cos power, dense sin coefficients from the highest power down)
HornerGroup = Tuple[int, Tuple[complex, ...]]


def _canon(raw: Dict[Term, complex]) -> Dict[Term, complex]:
    out: Dict[Term, complex] = {}
    stack = list(raw.items())
    while stack:
        (m, n), c = stack.pop()
        if c == 0:
            continue
        if n >= 2:
            # cos^2 -> 1 - sin^2
            stack.append(((m, n - 2), c))
            stack.append(((m + 2, n - 2), -c))
        else:
            out[(m, n)] = out.get((m, n), 0) + c
    return {t: c for t, c in out.items() if c != 0}


class PhiSeries:
    """Immutable element of the trig-polynomial algebra."""

    __slots__ = ("terms", "_groups")

    def __init__(self, terms: Dict[Term, complex] | None = None):
        object.__setattr__(self, "terms", _canon(dict(terms or {})))
        object.__setattr__(self, "_groups", None)

    def __setattr__(self, *args):
        raise AttributeError("PhiSeries is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "PhiSeries":
        return PhiSeries({})

    @staticmethod
    def one() -> "PhiSeries":
        return PhiSeries({(0, 0): 1.0})

    @staticmethod
    def sin() -> "PhiSeries":
        return PhiSeries({(1, 0): 1.0})

    @staticmethod
    def cos() -> "PhiSeries":
        return PhiSeries({(0, 1): 1.0})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "PhiSeries") -> "PhiSeries":
        r = dict(self.terms)
        for t, c in other.terms.items():
            r[t] = r.get(t, 0) + c
        return PhiSeries(r)

    def __sub__(self, other: "PhiSeries") -> "PhiSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "PhiSeries") -> "PhiSeries":
        r: Dict[Term, complex] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                t = (m1 + m2, n1 + n2)
                r[t] = r.get(t, 0) + c1 * c2
        return PhiSeries(r)

    def scale(self, factor: complex) -> "PhiSeries":
        return PhiSeries({t: c * factor for t, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PhiSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"PhiSeries({self.terms!r})"

    # -- calculus ----------------------------------------------------------
    def differentiate(self) -> "PhiSeries":
        r: Dict[Term, complex] = {}
        for (m, n), c in self.terms.items():
            if m:
                t = (m - 1, n + 1)
                r[t] = r.get(t, 0) + c * m
            if n:
                t = (m + 1, n - 1)
                r[t] = r.get(t, 0) - c * n
        return PhiSeries(r)

    def integrate(self) -> "PhiSeries":
        """Antiderivative F, with F(0) = 0, of the series less its mean."""
        r: Dict[Term, complex] = {}
        for (m, n), c in self.terms.items():
            for t, cc in _int_monomial(m, n).items():
                r[t] = r.get(t, 0) + c * cc
        result = PhiSeries(r)
        at_zero = result.evaluate(0.0)
        if at_zero != 0:
            result = result - PhiSeries({(0, 0): at_zero})
        return result

    def evaluate(self, phi: complex) -> complex:
        s = cmath.sin(phi)
        c = cmath.cos(phi)
        total = 0j
        for (m, n), coeff in self.terms.items():
            total += coeff * s**m * c**n
        return total

    def _horner_groups(self) -> List[HornerGroup]:
        """The terms as polynomials in sin, one per cos power.

        Compiled on first use and kept, so a series evaluated at many
        points pays for it once.
        """
        if self._groups is None:
            by_cos: Dict[int, Dict[int, complex]] = {}
            for (m, n), c in self.terms.items():
                by_cos.setdefault(n, {})[m] = c
            groups = [(n, tuple(coeffs.get(m, 0.0)
                                for m in range(max(coeffs), -1, -1)))
                      for n, coeffs in sorted(by_cos.items())]
            object.__setattr__(self, "_groups", groups)
        return self._groups

    def evaluate_jet(self, sin_jet, cos_jet, jet_ops):
        """Evaluate on truncated Taylor series (jets of some variable).

        ``jet_ops`` supplies const/mul/add closed over the jet order; the
        jets for sin(phi) and cos(phi) must share a common base point, and
        are read only to that order, so the result of a longer jet is its
        truncation.  Each group of :meth:`_horner_groups` is evaluated by
        Horner in the sin jet, then multiplied by its cos power.
        """
        total = jet_ops.const(0.0)
        for n, coeffs in self._horner_groups():
            acc = jet_ops.const(coeffs[0])
            for c in coeffs[1:]:
                acc = jet_ops.mul(acc, sin_jet)
                acc[0] += c
            for _ in range(n):
                acc = jet_ops.mul(acc, cos_jet)
            total = jet_ops.add(total, acc)
        return total


def _int_monomial(m: int, n: int) -> Dict[Term, complex]:
    """Raw antiderivative of sin^m cos^n less its mean, n in {0, 1}.

    Odd cos powers integrate by substitution, sin powers by the reduction
    formula; for even m its last step, the integral of the constant
    (m - 1)!!/m!!, is the mean, and is dropped.
    """
    if n == 1:
        return {(m + 1, 0): 1.0 / (m + 1)}
    if m == 0:
        return {}
    if m == 1:
        return {(0, 1): -1.0}
    v = {(m - 1, 1): -1.0 / m}
    for t, c in _int_monomial(m - 2, 0).items():
        v[t] = v.get(t, 0) + c * (m - 1) / m
    return v
