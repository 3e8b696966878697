"""Exact integer arithmetic: a prime sieve, one vector factor table with
indicator columns, the divisor-threshold predicate, generalized divisor
coefficients with character twists, and exact Dirichlet convolution /
inversion.

Coefficient vectors hold int64 whenever every input is integer-valued (the
convolution identities are then checked exactly); otherwise they fall back to
complex128 with a 1e-9 comparison tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "factor_columns",
    "divisor_le_threshold",
    "threshold_log_cut",
    "KappaVector",
    "CharacterTable",
    "quadratic_character",
    "CoeffVector",
    "unit_coeffs",
    "ones_coeffs",
    "tau_kk_coeffs",
    "tau_chi_coeffs",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "truncated_inverse_phi",
]

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


def factor_columns(limit: int) -> dict[str, np.ndarray]:
    """Columns over n = 2..limit: smallest prime factor spf (int64), tau
    (int32), mu and the square-full and two-squares flags (int8, 0/1), from
    one smallest-prime-factor table.  Each pass strips from every n above 1
    the full power p^e of its smallest remaining prime p and folds e into the
    columns: at most 7 passes below 1e6, as 2*3*5*7*11*13*17 = 510510."""
    if limit < 2:
        raise CapacityError(f"sieve limit must be at least 2, got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_upto(isqrt(limit)).tolist():
        view = spf[p * p :: p]
        view[view == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    tau = np.ones(limit - 1, dtype=np.int32)
    mu, squarefull, two_squares = (np.ones(limit - 1, dtype=np.int8) for _ in range(3))
    at = np.arange(limit - 1)  # positions of the n not yet reduced to 1
    m = at + 2  # their unstripped parts
    while at.size:
        p = spf[m]
        e = np.zeros_like(m)
        k = np.arange(m.size)
        while k.size:
            m[k] //= p[k]
            e[k] += 1
            k = k[m[k] % p[k] == 0]
        tau[at] *= e + 1
        mu[at] = np.where(e > 1, 0, -mu[at])
        squarefull[at[e == 1]] = 0
        two_squares[at[(p % 4 == 3) & (e % 2 == 1)]] = 0
        keep = m > 1
        at, m = at[keep], m[keep]
    return dict(spf=spf[2:], tau=tau, mu=mu, squarefull=squarefull, two_squares=two_squares)


# Knife-edge guard for the float comparison log d <= t log n; genuine
# non-equal gaps are >= ~1/(2 n log n) which stays above 1e-11 for n <= 1e8.
_THRESHOLD_GUARD = 1e-11


def divisor_le_threshold(d: int, n: int, t: float) -> bool:
    """Canonical test for d <= n**t, shared by every divisor-statistics path."""
    if d == 1:
        return True
    if n == 1:
        return False
    return math.log(d) <= threshold_log_cut(math.log(n), t)


def threshold_log_cut(log_n, t):
    """The cut c with divisor_le_threshold(d, n, t) == (log d <= c) for
    d, n >= 2, over floats or arrays of log n and t (broadcast together)."""
    return t * log_n + _THRESHOLD_GUARD


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
    def principal(self) -> bool:
        """chi(a) = 1 (to the table's tolerance) for every a coprime to q."""
        return all(abs(v - 1) <= 1e-12 for a, v in enumerate(self.values) if gcd(a, self.modulus) == 1)

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


# ----------------------------------------------------------------------------
# Generalized divisor coefficients
# ----------------------------------------------------------------------------

def _power_stream(limit: int, k: int, weights=None, exact: bool = True):
    """Sum_m w(m) m^{-k s} by its support: the ascending n = m^k <= limit with
    w(m) != 0, and the values w(m) there."""
    support, values = [], []
    m = 1
    while m**k <= limit:
        w = 1 if weights is None else complex(weights(m))
        if w != 0:
            support.append(m**k)
            values.append(int(w.real) if exact else w)
        m += 1
    dtype = np.int64 if exact else np.complex128
    return np.array(support, dtype=np.int64), np.array(values, dtype=dtype)


def tau_kk_coeffs(limit: int, kv: KappaVector) -> CoeffVector:
    """tau_{kappa,kappa}(n) for n <= limit via stream convolution (exact)."""
    kappas = kv.integer_exponents()
    acc = unit_coeffs(limit).values
    for k in kappas * 2:
        acc = _convolve(*_power_stream(limit, k), acc)
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
        acc = _convolve(*_power_stream(limit, k, exact=exact), acc)
    for k, chi in zip(kappas, chis):
        if chi is not None:
            acc = _convolve(*_power_stream(limit, k, weights=chi, exact=exact), acc)
    return CoeffVector(limit, acc)


# ----------------------------------------------------------------------------
# Dirichlet convolution and inversion
# ----------------------------------------------------------------------------

def _max_abs(v: np.ndarray) -> int:
    return max(int(v.max()), -int(v.min()))


def _convolve(support: np.ndarray, a_vals: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """out(m) = sum_{dk=m} a(d) b(k), for a given by its values a_vals at the
    ascending positions support (its nonzero entries): one slice update per
    d.  An int64 result raises CapacityError if the bound max|b| * sum|a|
    leaves int64, before any update could wrap."""
    n = bv.size - 1
    out = np.zeros(n + 1, dtype=np.result_type(a_vals, bv))
    if out.dtype.kind in "iu":
        if _max_abs(bv[1:]) * sum(map(abs, a_vals.tolist())) > _INT64_MAX:
            raise CapacityError("Dirichlet convolution may leave int64")
    for d, ad in zip(support.tolist(), a_vals):
        out[d::d] += ad * bv[1 : n // d + 1]
    return out


def dirichlet_convolve(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """a * b in O(support of a) slice updates."""
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    support = np.flatnonzero(a.values[1:]) + 1
    return CoeffVector(a.limit, _convolve(support, a.values[support], b.values))


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
