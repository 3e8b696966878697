"""Truncated power series arithmetic (fixed order J): products, and the
formal log, exp and principal power.  The Taylor series they act on come
from specfun's Euler-Maclaurin jets and from closed forms in sdexpand."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError, SingularLeadError

__all__ = ["PowerSeries", "ps_log", "ps_exp", "ps_pow"]


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_J of sum c_j (s - center)^j."""

    center: complex
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise DomainError("need at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _like(self, coeffs) -> "PowerSeries":
        return PowerSeries(self.center, tuple(complex(c) for c in coeffs))

    def _check(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise DomainError("series orders differ")
        if self.center != other.center:
            raise DomainError("series centers differ")

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            n = self.order + 1
            out = [0j] * n
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n - i):
                    out[i + j] += a * other.coeffs[j]
            return self._like(out)
        return self._like(complex(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def eval(self, s: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * (s - self.center) + c
        return acc


def ps_log(a: PowerSeries) -> PowerSeries:
    """Formal log; principal branch at the constant term."""
    if a.coeffs[0] == 0:
        raise SingularLeadError("log needs a nonzero constant term")
    n = a.order + 1
    a0 = a.coeffs[0]
    b = [cmath.log(a0)] + [0j] * (n - 1)
    for k in range(1, n):
        acc = k * a.coeffs[k]
        for j in range(1, k):
            acc -= j * b[j] * a.coeffs[k - j]
        b[k] = acc / (k * a0)
    return a._like(b)


def ps_exp(a: PowerSeries) -> PowerSeries:
    n = a.order + 1
    b = [cmath.exp(a.coeffs[0])] + [0j] * (n - 1)
    for k in range(1, n):
        acc = 0j
        for j in range(1, k + 1):
            acc += j * a.coeffs[j] * b[k - j]
        b[k] = acc / k
    return a._like(b)


def ps_pow(a: PowerSeries, z: complex) -> PowerSeries:
    """a**z = exp(z log a) with the principal branch."""
    z = complex(z)
    if z == 0:
        return a._like([1.0] + [0.0] * a.order)
    return ps_exp(z * ps_log(a))

