"""Per-n reference implementations that the tests compare the package's vector
paths against: a smallest-prime-factor table, factorization and divisors read
off it, the two indicators, the exact rational divisor CDF F_n(t), the
divisor logs of a factored n, a table of the sums of two squares,
tau_{kappa,kappa}(n) by trial division, and mu by sieving."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from math import isqrt

import numpy as np

from sdlab.arith import CoeffVector, KappaVector, divisor_le_threshold, ones_coeffs, primes_upto
from sdlab.errors import CapacityError, DomainError

_SIEVE_GUARD = 10**9


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 2..limit."""

    limit: int
    spf: np.ndarray


def build_sieve(limit: int) -> FactorSieve:
    if limit < 2:
        raise CapacityError(f"sieve limit must be at least 2, got {limit}")
    if limit > _SIEVE_GUARD:
        raise CapacityError(f"sieve limit {limit} exceeds guard {_SIEVE_GUARD}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    return FactorSieve(limit=limit, spf=spf)


def factorize(n: int, sieve: FactorSieve) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n <= sieve.limit, ascending primes."""
    if not 1 <= n <= sieve.limit:
        raise DomainError(f"n={n} outside sieve range [1, {sieve.limit}]")
    out = []
    spf = sieve.spf
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def divisors(n: int, sieve: FactorSieve) -> list[int]:
    ds = [1]
    for p, e in factorize(n, sieve):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_squarefull(n: int, sieve: FactorSieve) -> bool:
    """True iff every prime exponent of n is >= 2 (vacuously true at n=1)."""
    return all(e >= 2 for _, e in factorize(n, sieve))


def is_sum_two_squares(n: int, sieve: FactorSieve) -> bool:
    """True iff no prime p = 3 (mod 4) divides n to an odd power."""
    return all(
        e % 2 == 0 for p, e in factorize(n, sieve) if p % 4 == 3
    )


def divisor_cdf(n: int, t: float, sieve: FactorSieve) -> Fraction:
    """F_n(t): fraction of divisors d of n with d <= n**t (exact rational)."""
    if n < 2:
        raise DomainError("divisor_cdf is defined for n >= 2")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    ds = divisors(n, sieve)
    count = sum(1 for d in ds if divisor_le_threshold(d, n, t))
    return Fraction(count, len(ds))


def divisor_logs(factors) -> np.ndarray:
    """log d for every divisor d of the product of p**e over the (p, e)
    pairs, built over the primes in the order given: the per-member float
    operations that the square-full window engine batches by exponent shape."""
    divs = np.array([0.0], dtype=np.float64)
    for p, e in factors:
        lp = math.log(p)
        divs = (divs[:, None] + np.arange(e + 1)[None, :] * lp).reshape(-1)
    return divs


def two_squares_table(limit: int) -> np.ndarray:
    """Flags over 0..limit: True at each n >= 1 that is a^2 + b^2, marked
    from every pair 0 <= a <= b, one vector of b per a."""
    table = np.zeros(limit + 1, dtype=bool)
    for a in range(isqrt(limit // 2) + 1):
        b = np.arange(a, isqrt(limit - a * a) + 1)
        table[a * a + b * b] = True
    table[0] = False
    return table


def moebius_coeffs(limit: int) -> CoeffVector:
    """mu(1..limit), exactly, the Dirichlet inverse of the all-ones series:
    each prime p flips the sign of its multiples and zeroes those of p^2."""
    c = ones_coeffs(limit)
    for p in primes_upto(limit).tolist():
        c.values[p::p] *= -1
        c.values[p * p :: p * p] = 0
    return c


def tau_kk(n: int, kv: KappaVector) -> int:
    """Number of 2r-tuples (m_1..m_r, n_1..n_r) with prod m_i^k_i n_i^k_i = n."""
    kappas = kv.integer_exponents()
    if n < 1:
        raise DomainError("n must be positive")
    count = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            count *= _exponent_tuple_count(e, kappas)
        p += 1 if p == 2 else 2
    if m > 1:
        count *= _exponent_tuple_count(1, kappas)
    return count


def _exponent_tuple_count(e: int, kappas: tuple[int, ...]) -> int:
    # Solutions of sum_i k_i (a_i + b_i) = e over non-negative integers,
    # one slot per a_i and b_i: standard coin-style DP.
    ways = [0] * (e + 1)
    ways[0] = 1
    for k in kappas * 2:
        for v in range(k, e + 1):
            ways[v] += ways[v - k]
    return ways[e]
