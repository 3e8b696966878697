"""Truncated power series arithmetic (fixed order J) and Taylor coefficients
of analytic functions via Cauchy integrals on a circle.

`taylor_at` evaluates its function once, as a vector call on a 512-node ring;
the even nodes form the 256-node rule that serves as the accuracy check."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, SingularLeadError

__all__ = ["PowerSeries", "ps_log", "ps_exp", "ps_pow", "taylor_at"]


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


def taylor_at(fn, s0: complex, order: int, radius: float) -> PowerSeries:
    """Taylor coefficients of fn about s0 from trapezoid Cauchy integrals on
    |s - s0| = radius.

    fn is a vector callable: it maps a complex128 array of nodes to the array
    of its values there.  It is called once, on 512 nodes.  Their even half
    is the 256-node rule bit for bit (2 pi 2k/512 and 2 pi k/256 round to the
    same double), and the two trapezoid sums must agree as an accuracy check.
    """
    if radius <= 0:
        raise DomainError("radius must be positive")
    nodes = 512
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    ring = s0 + radius * np.exp(1j * theta)
    vals = np.asarray(fn(ring), dtype=np.complex128)
    # radius^j by Python's float power, not numpy's: the same bits on every
    # SIMD target
    scale = np.array([radius**j for j in range(order + 1)])

    def coeffs(v: np.ndarray) -> np.ndarray:
        # c_j = (1/(N r^j)) sum_k f(s_k) e^{-i j theta_k}
        fft = np.fft.fft(v) / v.size
        return fft[: order + 1] / scale

    base = coeffs(np.ascontiguousarray(vals[::2]))
    fine = coeffs(vals)
    # Coefficient j amplifies evaluation noise by radius^-j, so stability is
    # judged at function scale: |delta c_j| * radius^j.
    err = float(np.max(np.abs(base - fine) * scale))
    if err > 1e-10:
        raise AccuracyError(
            f"Cauchy-integral coefficients unstable under node doubling "
            f"(max scaled change {err:.3e}); shrink the radius or check "
            f"analyticity"
        )
    return PowerSeries(complex(s0), tuple(fine[: order + 1]))
