"""Exact integer arithmetic: factor sieves, indicator functions, divisor
statistics, generalized divisor coefficients with character twists, and exact
Dirichlet convolution / inversion.

Coefficient vectors hold int64 whenever every input is integer-valued (the
convolution identities are then checked exactly); otherwise they fall back to
complex128 with a 1e-9 comparison tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    LimitMismatchError,
    NonInvertibleError,
    PrincipalCharacterError,
)

__all__ = [
    "primes_upto",
    "FactorSieve",
    "build_sieve",
    "factorize",
    "divisors",
    "is_squarefull",
    "is_sum_two_squares",
    "divisor_cdf",
    "divisor_le_threshold",
    "threshold_log_cut",
    "KappaVector",
    "CharacterTable",
    "quadratic_character",
    "CoeffVector",
    "unit_coeffs",
    "ones_coeffs",
    "moebius_coeffs",
    "tau_kk",
    "tau_kk_coeffs",
    "tau_chi_coeffs",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "truncated_inverse_phi",
]

_SIEVE_GUARD = 10**9
_INT64_MAX = 2**63 - 1


# ----------------------------------------------------------------------------
# Sieves
# ----------------------------------------------------------------------------

def primes_upto(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending (sieve of Eratosthenes)."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


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


# Knife-edge guard for the float comparison log d <= t log n; genuine
# non-equal gaps are >= ~1/(2 n log n) which stays above 1e-11 for n <= 1e8.
_THRESHOLD_GUARD = 1e-11


def divisor_le_threshold(d: int, n: int, t: float) -> bool:
    """Canonical test for d <= n**t, shared by every divisor-statistics path."""
    if d == 1:
        return True
    if n == 1:
        return False
    return math.log(d) <= t * math.log(n) + _THRESHOLD_GUARD


def threshold_log_cut(log_n, t):
    """The cut c with divisor_le_threshold(d, n, t) == (log d <= c) for
    d, n >= 2, over numpy arrays of log n and t (broadcast together)."""
    return t * log_n + _THRESHOLD_GUARD


def divisor_cdf(n: int, t: float, sieve: FactorSieve) -> Fraction:
    """F_n(t): fraction of divisors d of n with d <= n**t (exact rational)."""
    if n < 2:
        raise DomainError("divisor_cdf is defined for n >= 2")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    ds = divisors(n, sieve)
    count = sum(1 for d in ds if divisor_le_threshold(d, n, t))
    return Fraction(count, len(ds))


# ----------------------------------------------------------------------------
# Kappa vectors and Dirichlet characters
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaVector:
    """Strictly increasing exponents kappa_1 < ... < kappa_r <= 2 kappa_1."""

    kappa: tuple[float, ...]

    def __post_init__(self):
        k = self.kappa
        if len(k) < 1:
            raise DomainError("kappa vector must be non-empty")
        if k[0] < 1:
            raise DomainError("kappa_1 must be >= 1")
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise DomainError("kappa must be strictly increasing")
        if k[-1] > 2 * k[0]:
            raise DomainError("kappa_r must not exceed 2 kappa_1")

    @property
    def r(self) -> int:
        return len(self.kappa)

    def integer_exponents(self) -> tuple[int, ...]:
        if any(float(x) != int(x) for x in self.kappa):
            raise DomainError(
                "coefficient streams are only defined for integer exponents"
            )
        return tuple(int(x) for x in self.kappa)


@dataclass(frozen=True)
class CharacterTable:
    """A Dirichlet character mod q given by its value table on residues 0..q-1."""

    modulus: int
    values: tuple[complex, ...]
    principal: bool = field(default=False)

    def __post_init__(self):
        q = self.modulus
        if q < 1 or len(self.values) != q:
            raise DomainError("value table length must equal the modulus")
        for a, v in enumerate(self.values):
            if (gcd(a, q) > 1) != (v == 0):
                raise DomainError(
                    f"chi({a}) must vanish exactly on residues sharing a "
                    f"factor with {q}"
                )
        for a in range(q):
            for b in range(q):
                lhs = self.values[(a * b) % q]
                rhs = self.values[a] * self.values[b]
                if abs(lhs - rhs) > 1e-12:
                    raise DomainError("character table is not multiplicative")

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_real_integer(self) -> bool:
        return all(v.imag == 0 and v.real in (-1.0, 0.0, 1.0) for v in self.values)


def quadratic_character(q: int) -> CharacterTable:
    """The real non-principal character mod q (q = 4 or an odd prime)."""
    if q == 4:
        return CharacterTable(4, (0, 1, 0, -1))
    if q < 3 or any(q % p == 0 for p in range(2, isqrt(q) + 1)):
        raise DomainError("quadratic_character needs q = 4 or an odd prime")
    values = [0] * q
    residues = {(a * a) % q for a in range(1, q)}
    for a in range(1, q):
        values[a] = 1 if a in residues else -1
    return CharacterTable(q, tuple(values))


# ----------------------------------------------------------------------------
# Coefficient vectors
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffVector:
    """Dirichlet-series coefficients a(1)..a(N); index 0 is unused."""

    limit: int
    values: np.ndarray

    def __post_init__(self):
        if self.limit < 1:
            raise DomainError(f"limit must be at least 1, got {self.limit}")
        if self.values.shape != (self.limit + 1,):
            raise DomainError("values must have length limit + 1")

    @property
    def exact(self) -> bool:
        return self.values.dtype.kind in "iu"

    def __getitem__(self, n: int):
        if not 1 <= n <= self.limit:
            raise DomainError(f"index {n} outside 1..{self.limit}")
        v = self.values[n]
        return int(v) if self.exact else complex(v)


def unit_coeffs(limit: int) -> CoeffVector:
    c = CoeffVector(limit, np.zeros(limit + 1, dtype=np.int64))
    c.values[1] = 1
    return c


def ones_coeffs(limit: int) -> CoeffVector:
    c = CoeffVector(limit, np.ones(limit + 1, dtype=np.int64))
    c.values[0] = 0
    return c


def moebius_coeffs(limit: int) -> CoeffVector:
    """mu(1..limit), exactly: the Dirichlet inverse of the all-ones series."""
    return dirichlet_inverse(ones_coeffs(limit))


# ----------------------------------------------------------------------------
# Generalized divisor coefficients
# ----------------------------------------------------------------------------

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


def _power_stream(limit: int, k: int, weights=None, exact: bool = True) -> np.ndarray:
    """Coefficients of sum_m w(m) m^{-k s}: w(m) at n = m^k, else 0."""
    v = np.zeros(limit + 1, dtype=np.int64 if exact else np.complex128)
    m = 1
    while m**k <= limit:
        if weights is None:
            v[m**k] = 1
        else:
            w = complex(weights(m))
            v[m**k] = int(w.real) if exact else w
        m += 1
    return v


def tau_kk_coeffs(limit: int, kv: KappaVector) -> CoeffVector:
    """tau_{kappa,kappa}(n) for n <= limit via stream convolution (exact)."""
    kappas = kv.integer_exponents()
    acc = unit_coeffs(limit).values
    for k in kappas * 2:
        acc = _convolve(_power_stream(limit, k), acc)
    return CoeffVector(limit, acc)


def tau_chi_coeffs(
    limit: int, kv: KappaVector, chis: tuple[CharacterTable | None, ...]
) -> CoeffVector:
    """tau_kappa(n; chi) for n <= limit: convolution of the zeta(k_i s) streams
    with the character-twisted L(k_i s, chi_i) streams.  chi_i = None drops
    the L stream of component i."""
    kappas = kv.integer_exponents()
    if len(chis) != len(kappas):
        raise DomainError("need one character per kappa component")
    chis_present = [chi for chi in chis if chi is not None]
    if any(chi.principal for chi in chis_present):
        raise PrincipalCharacterError("characters must be non-principal")
    exact = all(chi.is_real_integer for chi in chis_present)
    acc = unit_coeffs(limit).values
    if not exact:
        acc = acc.astype(np.complex128)
    for k in kappas:
        acc = _convolve(_power_stream(limit, k, exact=exact), acc)
    for k, chi in zip(kappas, chis):
        if chi is not None:
            stream = _power_stream(limit, k, weights=chi, exact=exact)
            acc = _convolve(stream, acc)
    return CoeffVector(limit, acc)


# ----------------------------------------------------------------------------
# Dirichlet convolution and inversion
# ----------------------------------------------------------------------------

def _max_abs(v: np.ndarray) -> int:
    return max(int(v.max()), -int(v.min()))


def _convolve(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """out(m) = sum_{dk=m} a(d) b(k): one slice update per nonzero a(d), in
    ascending d.  An int64 result raises CapacityError if the bound
    max|b| * sum|a| leaves int64, before any update could wrap."""
    n = av.size - 1
    out = np.zeros(n + 1, dtype=np.result_type(av, bv))
    support = np.flatnonzero(av[1:]) + 1
    if out.dtype.kind in "iu":
        if _max_abs(bv[1:]) * sum(map(abs, av[support].tolist())) > _INT64_MAX:
            raise CapacityError("Dirichlet convolution may leave int64")
    for d in support.tolist():
        out[d::d] += av[d] * bv[1 : n // d + 1]
    return out


def dirichlet_convolve(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """a * b in O(support of a) slice updates."""
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    return CoeffVector(a.limit, _convolve(a.values, b.values))


def dirichlet_inverse(a: CoeffVector) -> CoeffVector:
    """b with a*b = unit, by the forward sieve recursion
    b(dk) -= b(d) a(k) / a(1), k >= 2, applied for each nonzero b(d) in
    ascending d.

    The work runs in dyadic blocks [L, 2L).  A proper divisor of m < 2L is
    at most m/2 < L, so once every d < L has been applied each b(m) in the
    block is final, and only the block's nonzero entries need a step.  An
    exact result raises CapacityError once max|a| * sum|b(d)| over the
    applied d leaves int64, which bounds every partial value."""
    n = a.limit
    av = a.values
    lead = av[1]
    if lead == 0:
        raise NonInvertibleError("a(1) must be nonzero")
    exact = a.exact and int(lead) in (1, -1)
    dtype = np.int64 if exact else np.complex128
    b = np.zeros(n + 1, dtype=dtype)
    inv_lead = int(lead) if exact else 1.0 / complex(lead)
    b[1] = inv_lead
    av_c = av if exact else av.astype(np.complex128)
    amax = _max_abs(av[1:]) if exact else 0
    applied = 0
    lo = 1
    while lo <= n // 2:
        hi = min(2 * lo, n // 2 + 1)
        support = np.flatnonzero(b[lo:hi]) + lo
        if exact:
            applied += sum(map(abs, b[support].tolist()))
            if amax * applied > _INT64_MAX:
                raise CapacityError("Dirichlet inverse may leave int64")
        for d in support.tolist():
            b[2 * d :: d] -= (b[d] * inv_lead) * av_c[2 : n // d + 1]
        lo = hi
    return CoeffVector(n, b)


def truncated_inverse_phi(
    x: int, limit: int, kv: KappaVector, chis: tuple[CharacterTable, ...]
) -> CoeffVector:
    """Coefficients of zeta(ks) L(ks, chi) M_x(s) with M_x the inverse series
    truncated at x: phi_x(n) = sum_{d|n, d<=x} tauinv(d) tau(n/d)."""
    if limit < x:
        raise DomainError("limit must be at least x")
    tau = tau_chi_coeffs(limit, kv, chis)
    # tauinv(1..x) does not depend on the coefficients above x
    head = dirichlet_inverse(CoeffVector(x, tau.values[: x + 1])).values
    truncated = np.zeros(limit + 1, dtype=head.dtype)
    truncated[: x + 1] = head
    return dirichlet_convolve(CoeffVector(limit, truncated), tau)
