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


def _stream_product(limit: int, streams, dtype) -> CoeffVector:
    """The product of power streams (support, values), with the accumulator
    kept by its support: np.add.at keeps the d-major order of each sum."""
    out = CoeffVector(limit, np.zeros(limit + 1, dtype=dtype))  # checks limit >= 1
    support, values = np.ones(1, dtype=np.int64), np.ones(1, dtype=dtype)
    for stream in streams:
        _check_convolve(stream[1], values)
        m, terms = map(np.concatenate, zip(*_pair_terms(*stream, support, values, limit)))
        support, at = np.unique(m, return_inverse=True)
        values = np.zeros(support.size, dtype=dtype)
        np.add.at(values, at, terms)
        support, values = support[values != 0], values[values != 0]
    out.values[support] = values
    return out


def tau_kk_coeffs(limit: int, kv: KappaVector) -> CoeffVector:
    """tau_{kappa,kappa}(n) for n <= limit via stream convolution (exact)."""
    kappas = kv.integer_exponents()
    return _stream_product(limit, (_power_stream(limit, k) for k in kappas * 2), np.int64)


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
    streams = [_power_stream(limit, k, exact=exact) for k in kappas]
    streams += [_power_stream(limit, k, chi, exact) for k, chi in zip(kappas, chis) if chi is not None]
    return _stream_product(limit, streams, np.int64 if exact else np.complex128)


# ----------------------------------------------------------------------------
# Dirichlet convolution and inversion
# ----------------------------------------------------------------------------

_PAIR_BLOCK = 1 << 16  # pairs per block of the batched pair updates (512 KiB an array)


def _pair_blocks(counts: np.ndarray, whole_rows: bool = False):
    """The pairs (i, j), j < counts[i], row-major, in blocks of at most
    _PAIR_BLOCK pairs: (i0, i1, starts, rows, cols), the pairs of row i0 + r
    beginning at starts[r].  A block holds whole rows, and a longer row goes
    in pieces of _PAIR_BLOCK pairs, or whole with whole_rows."""
    ends = np.cumsum(counts)
    i0 = 0
    while i0 < counts.size:
        done = int(ends[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        m = counts[i0:i1]
        if m[0] > _PAIR_BLOCK and not whole_rows:
            for c in range(0, int(m[0]), _PAIR_BLOCK):
                cols = np.arange(c, min(c + _PAIR_BLOCK, int(m[0])))
                yield i0, i1, np.zeros(1, dtype=np.int64), np.full(cols.size, i0), cols
        else:
            starts = np.cumsum(m) - m
            cols = np.arange(int(ends[i1 - 1]) - done) - np.repeat(starts, m)
            yield i0, i1, starts, np.repeat(np.arange(i0, i1), m), cols
        i0 = i1


def _pair_terms(d_support, d_values, k_support, k_values, n: int):
    """The pair kernel: blocks (m, terms) of d_values[i] * k_values[j] at
    m = d k <= n, for ascending supports, in ascending d and then k.  So
    np.add.at sums each m as a slice update per d did, less zero terms."""
    counts = np.searchsorted(k_support, n // d_support, side="right")
    for *_, i, j in _pair_blocks(counts):
        yield d_support[i] * k_support[j], d_values[i] * k_values[j]


def _max_abs(v: np.ndarray) -> int:
    return max(int(v.max()), -int(v.min()))


def _check_convolve(a_values: np.ndarray, b_values: np.ndarray) -> None:
    """Raise CapacityError if an int64 convolution's bound max|b| * sum|a|
    leaves int64, before any update could wrap."""
    if np.result_type(a_values, b_values).kind in "iu" and b_values.size:
        if _max_abs(b_values) * sum(map(abs, a_values.tolist())) > _INT64_MAX:
            raise CapacityError("Dirichlet convolution may leave int64")


def dirichlet_convolve(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """a * b by the pair kernel over the nonzero a(d), b(k) with d k <= N."""
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    sa, sb = ((v.values[1:] != 0).nonzero()[0] + 1 for v in (a, b))
    av, bv = a.values[sa], b.values[sb]
    _check_convolve(av, bv)
    out = np.zeros(a.limit + 1, dtype=np.result_type(av, bv))
    for m, terms in _pair_terms(sa, av, sb, bv, a.limit):
        np.add.at(out, m, terms)
    return CoeffVector(a.limit, out)


def dirichlet_inverse(a: CoeffVector) -> CoeffVector:
    """b with a*b = unit, by the forward sieve recursion
    b(dk) -= b(d) a(k) / a(1), k >= 2, applied for each nonzero b(d) in
    ascending d.

    The work runs in dyadic blocks [L, 2L).  A proper divisor of m < 2L is
    at most m/2 < L, so once every d < L has been applied each b(m) in the
    block is final, and the block's nonzero entries take their steps
    together, through the pair kernel with the nonzero a(k), k >= 2.  An
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
    ks = (av[2:] != 0).nonzero()[0] + 2
    a_ks = av[ks].astype(dtype)
    amax = _max_abs(av[1:]) if exact else 0
    applied = 0
    lo = 1
    while lo <= n // 2:
        hi = min(2 * lo, n // 2 + 1)
        support = (b[lo:hi] != 0).nonzero()[0] + lo
        if exact:
            applied += sum(map(abs, b[support].tolist()))
            if amax * applied > _INT64_MAX:
                raise CapacityError("Dirichlet inverse may leave int64")
        # scalar products: an array product b[support] * inv_lead rounds differently
        steps = np.array([b[d] * inv_lead for d in support.tolist()], dtype=dtype)
        for m, terms in _pair_terms(support, steps, ks, a_ks, n):
            np.subtract.at(b, m, terms)
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
