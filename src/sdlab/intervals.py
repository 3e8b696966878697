"""Short- and long-interval statistics: square-full enumeration, sums-of-two-
squares window counts, Cesaro means of the divisor distribution F_n(t), and
comparisons against their limit laws (arcsine, beta, and the square-full law).

The window engine never factors individual integers.  Divisor statistics come
from looping d <= sqrt(hi) over multiples: small divisors determine F_n(t) on
both halves of [0,1] through the d <-> n/d pairing, and arith's
divisor_le_threshold decides both halves, the upper one on the cofactor n/d.
The passing multiples of each d form a run, and the mean is linear in the
shares, so the engine sums w(n) = 1/tau(n) over each run and takes a prefix
sum over the grid columns; it keeps no per-n count matrix.  The window is
scanned in chunks of a fixed 2^20 integers (_CHUNK); a window of several chunks is cut at
chunk boundaries into one contiguous sub-range per CPU, and forked worker
processes scan the sub-ranges.  Every partial sum depends only on its own
chunk, and math.fsum rounds correctly whatever the order of its inputs, so
the sums are the same bits for any number of workers.  On a 2-core box,
ddt_mean(10**7) takes about 0.55 s (0.85 s in one process), and the
two-squares window at x = 1e8, theta = 0.85 about 1.0 s (1.45 s).

Square-full members come from the a^2 b^3 parametrization with b
squarefree, as int64 arrays in ascending order.  Their mean runs in this
process, in blocks of members: a and b are trial-divided by the primes up to
sqrt(max(a, b)), each leaving 1 or a prime, so no factor table grows with
the window.  Members of one exponent shape get their divisor logs side by
side with the float operations of the per-member divisor_logs oracle in
tests/oracles.py, the counts below each threshold are integers, and the
shares count / tau(n) are added by a cumulative sum in member order; so the
sums are the bits of a member-by-member loop.  The window at x = 1e10, theta = 0.42 (16,421
members) takes about 0.2 s.  The two-squares indicator comes from a
segmented parity sieve over primes p = 3 (mod 4); the engine walks the
sieve's own chunks, so each mask is scanned with the chunk it belongs to.

Counts of sums of two squares come from that sieve or, in sublinear time,
as B(hi) - B(lo): B(x) counts them up to x by Lucy_Hedgehog's recursion for
the primes in each class mod 4 and min_25's pass for the indicator, over
the values floor(x/k), in int64 (_two_squares_upto).  count_two_squares
runs the one that its measured cost model expects to be faster.  Widths are
bounded by _WIDTH_GUARD for the window engine and the sieve, and hi by
_SUBLINEAR_GUARD for the sublinear count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import specfun
from .arith import divisor_le_threshold, primes_upto, threshold_log_cut
from .errors import CapacityError, DomainError, EmptyIntervalError

__all__ = [
    "DEFAULT_T_GRID",
    "IntervalSpec",
    "LawReport",
    "enumerate_squarefull",
    "count_squarefull",
    "count_two_squares",
    "two_squares_count_and_masks",
    "ddt_mean",
    "weighted_fn_mean",
    "arcsine_law",
    "squarefull_divisor_law",
]

DEFAULT_T_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

_WINDOW_GUARD = 10**15
_WIDTH_GUARD = 10**9  # the window engine and the two-squares parity sieve
_SUBLINEAR_GUARD = 10**13  # hi of the sublinear two-squares count
_CHUNK = 1 << 20


def arcsine_law(t: float) -> float:
    return (2.0 / math.pi) * math.asin(math.sqrt(t))


_THIRD = 1.0 / 3.0
_GL_RULE = tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(24))))


def squarefull_divisor_law(t: float) -> float:
    """Limit law G(t) of F_n(t) over square-full n.

    Write n = a^2 b^3; b stays bounded in probability, and each prime of a^2
    gives its divisor exponent 0, 1 or 2 with weight 1/3 (local factor
    p^{-2s}(1 + p^{-w} + p^{-2w})/3).  So log d / log n tends in law to
    V/2 + W with (U, V, W) ~ Dirichlet(1/3, 1/3, 1/3).  Conditioning on
    W ~ Beta(1/3, 2/3), with V/(1-W) ~ Beta(1/3, 1/3), gives for t <= 1/2

        G(t) = int_0^t f_W(w) I_{2(t-w)/(1-w)}(1/3, 1/3) dw,

    and G(t) = 1 - G(1-t) above 1/2, since U and W are exchangeable; this
    matches the d <-> n/d symmetry of F_n.  The integral is split at t/2:
    w = u^3 on the lower half and t - w = v^3 on the upper half absorb the
    w^{-2/3} and (t-w)^{1/3} endpoint singularities, leaving smooth
    integrands for a fixed 24-point Gauss-Legendre rule.  Against adaptive
    quadrature the absolute error stays below 1e-13 on [0, 0.499]; it grows
    to 4e-11 at t = 0.4999, where 2(t-w)/(1-w) nears the endpoint 1.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if t > 0.5:
        return 1.0 - squarefull_divisor_law(1.0 - t)
    if t == 0.5:
        return 0.5
    if t == 0.0:
        return 0.0
    half = 0.5 * (0.5 * t) ** _THIRD
    total = 0.0
    for x, wt in _GL_RULE:
        u = half * (x + 1.0)
        v = t - u**3
        # f_W(w) dw / (3 du / B(1/3, 2/3)) is (1-w)^{-1/3} for w = u^3 and
        # u^2 w^{-2/3} (1-w)^{-1/3} for w = t - u^3
        for w, jac in ((u**3, 1.0), (v, u * u * v ** (-2.0 * _THIRD))):
            total += wt * jac * (1.0 - w) ** -_THIRD * specfun.reg_inc_beta(
                2.0 * (t - w) / (1.0 - w), _THIRD, _THIRD
            )
    return 3.0 * half * total / specfun.beta_fn(_THIRD, 2.0 * _THIRD)


@dataclass(frozen=True)
class IntervalSpec:
    """Window (x, x + x^(1-1/kappa1) * y] with y = x^theta."""

    x: int
    theta: float
    kappa1: float

    def __post_init__(self):
        if self.x < 3:
            raise DomainError("x must be at least 3")
        if not 0.0 < self.theta <= 1.0:
            raise DomainError("theta must lie in (0, 1]")
        if self.kappa1 < 1.0:
            raise DomainError("kappa1 must be >= 1")
        if self.hi > 2 * self.x:
            raise DomainError("interval end exceeds 2x; shrink theta")

    @property
    def y(self) -> float:
        return float(self.x) ** self.theta

    @property
    def lo(self) -> int:
        return self.x

    @property
    def hi(self) -> int:
        return int(math.floor(self.x + self.x ** (1.0 - 1.0 / self.kappa1) * self.y))

    @property
    def y_prime(self) -> float:
        k = self.kappa1
        return k * (self.hi ** (1.0 / k) - self.x ** (1.0 / k))


@dataclass(frozen=True)
class LawReport:
    """Empirical divisor-distribution means against a limit-law prediction."""

    x: int
    y: float
    theta: float
    indicator: str
    t_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    predicted: tuple[float, ...]
    sup_error: float
    count: int

    def records(self) -> list[dict]:
        rows = []
        for t, e, p in zip(self.t_grid, self.empirical, self.predicted):
            rows.append(
                {
                    "x": self.x,
                    "y": self.y,
                    "theta": self.theta,
                    "indicator": self.indicator,
                    "t": t,
                    "empirical": e,
                    "predicted": p,
                    "abs_error": abs(e - p),
                }
            )
        return rows


RECORD_FIELDS = ("x", "y", "theta", "indicator", "t", "empirical", "predicted", "abs_error")


# ----------------------------------------------------------------------------
# Square-full enumeration
# ----------------------------------------------------------------------------

def _squarefree_table(limit: int) -> np.ndarray:
    sf = np.ones(limit + 1, dtype=bool)
    sf[0] = False
    for p in primes_upto(isqrt(limit)):
        sf[p * p :: p * p] = False
    return sf


def _check_window(lo: int, hi: int) -> None:
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if hi > _WINDOW_GUARD:
        raise CapacityError(f"hi={hi} exceeds guard {_WINDOW_GUARD}")


def _squarefull_ranges(lo: int, hi: int):
    """(b, first, size): int64 arrays over the squarefree b with b^3 <= hi.
    The square-full n = a^2 b^3 in (lo, hi] with this b are those with a from
    first = isqrt(lo // b^3) + 1 to isqrt(hi // b^3), size of them."""
    _check_window(lo, hi)
    b = np.flatnonzero(_squarefree_table(round(hi ** (1.0 / 3.0)) + 2))
    b = b[b**3 <= hi]
    first = np.array([isqrt(v) + 1 for v in (lo // b**3).tolist()], dtype=np.int64)
    last = np.array([isqrt(v) for v in (hi // b**3).tolist()], dtype=np.int64)
    return b, first, np.maximum(last - first + 1, 0)


def count_squarefull(lo: int, hi: int) -> int:
    """Number of square-full integers in (lo, hi], without listing them."""
    return int(_squarefull_ranges(lo, hi)[2].sum())


def _squarefull_members(lo: int, hi: int):
    """(n, a, b): int64 arrays of every square-full n = a^2 b^3 in (lo, hi]
    with b squarefree, ascending in n.  The representation is unique, so no
    n repeats.  The ranges of a for each b (_squarefull_ranges) are laid end
    to end."""
    b, first, size = _squarefull_ranges(lo, hi)
    offset = np.repeat(first - (np.cumsum(size) - size), size)
    a = np.arange(int(size.sum()), dtype=np.int64) + offset
    b = np.repeat(b, size)
    n = a * a * b**3
    order = np.argsort(n, kind="stable")
    return n[order], a[order], b[order]


def enumerate_squarefull(lo: int, hi: int) -> list[int]:
    """All square-full integers in (lo, hi], via n = a^2 b^3, b squarefree."""
    return _squarefull_members(lo, hi)[0].tolist()


# ----------------------------------------------------------------------------
# Two-squares segmented parity sieve
# ----------------------------------------------------------------------------

def _check_two_squares_window(lo: int, hi: int) -> None:
    _check_window(lo, hi)
    if hi - lo > _WIDTH_GUARD:
        raise CapacityError(f"window width {hi - lo} exceeds guard {_WIDTH_GUARD}")


def two_squares_count_and_masks(lo: int, hi: int):
    """Yield (chunk_lo, mask) for n in (chunk_lo, chunk_lo+len(mask)] where
    mask marks integers representable as a sum of two squares; the chunks
    are those of the window engine, _CHUNK integers each.

    Exactness: n fails when a prime p = 3 (mod 4) up to sqrt(hi) divides it
    to an odd power; the sieve tracks each such exponent's parity.  When all
    of them are even, n stripped of them and of its powers of two is = the
    odd part of n (mod 4), and it is a product of p = 1 (mod 4) primes times
    at most one prime > sqrt(hi), so n fails exactly when its odd part is
    = 3 (mod 4): when the bit above the lowest set bit of n is set.
    """
    _check_two_squares_window(lo, hi)
    primes = primes_upto(isqrt(hi))
    primes3 = [int(p) for p in primes[primes % 4 == 3]]
    for clo in range(lo, hi, _CHUNK):
        chi_ = min(clo + _CHUNK, hi)
        m = chi_ - clo
        bad = np.zeros(m, dtype=bool)
        flip = np.zeros(m, dtype=bool)
        for p in primes3:
            start = (-(clo + 1)) % p
            if start >= m:
                continue
            pe = p
            while pe <= chi_:
                st = (-(clo + 1)) % pe
                if st < m:
                    flip[st::pe] ^= True
                pe *= p
            bad[start::p] |= flip[start::p]
            flip[start::p] = False
        n = np.arange(clo + 1, chi_ + 1, dtype=np.int64)
        bad |= (n & ((n & -n) << 1)) != 0
        yield clo, ~bad


def _count_two_squares_part(lo: int, hi: int) -> int:
    return sum(int(mask.sum()) for _, mask in two_squares_count_and_masks(lo, hi))


def _count_two_squares_sieve(lo: int, hi: int) -> int:
    """count_two_squares by the parity sieve, over sub-ranges in workers."""
    return sum(_over_subranges(_count_two_squares_part, lo, hi))


def count_two_squares(lo: int, hi: int) -> int:
    """Exact count of sums of two squares in (lo, hi].

    Two exact paths give the same count: the parity sieve over the window
    (_count_two_squares_sieve), whose cost grows with the width and with
    sqrt(hi), and B(hi) - B(lo) (_two_squares_upto), whose cost grows like
    hi^0.72.  The one this model expects to be faster runs, with constants
    fitted on a 2-core AVX-512 Xeon, the sieve on 2 workers:

        sieve:     (hi - lo) * (1.2e-8 + 1.4e-13 * sqrt(hi)) s,
        sublinear: (1 + [lo > 0]) * 2.2e-8 * hi^0.72 s.

    There the sieve took 0.25 s on (0, 2e7], 0.51 s on (1e10, 1e10 + 2e7]
    and 3.0 s on (1e12, 1e12 + 2e7]; B(x) took 0.005 s at 2e7, 0.065 s at
    1e9, 0.32 s at 1e10 and 9.9 s at 1e12.  So (0, 2e7] takes the sublinear
    path, and at hi = 1e12 with lo > 0 the sieve runs below a width of about
    1.3e8.  Windows wider than _WIDTH_GUARD always take the sublinear path,
    which is bounded by hi <= _SUBLINEAR_GUARD = 1e13: B(1e13) took 60 s
    at a peak RSS of 280 MiB.
    """
    _check_window(lo, hi)
    if hi <= _SUBLINEAR_GUARD and (hi - lo > _WIDTH_GUARD or _sublinear_is_faster(lo, hi)):
        return _two_squares_upto(hi) - _two_squares_upto(lo)
    if hi - lo > _WIDTH_GUARD:
        raise CapacityError(
            f"window width {hi - lo} exceeds guard {_WIDTH_GUARD} with hi={hi} above "
            f"the sublinear count's guard {_SUBLINEAR_GUARD}"
        )
    return _count_two_squares_sieve(lo, hi)


def _sublinear_is_faster(lo: int, hi: int) -> bool:
    """count_two_squares's cost model: whether B(hi) - B(lo) is expected to
    take less time than the parity sieve over (lo, hi]."""
    sieve_s = (hi - lo) * (1.2e-8 + 1.4e-13 * math.sqrt(hi))
    return (1 + (lo > 0)) * 2.2e-8 * hi**0.72 < sieve_s


# ----------------------------------------------------------------------------
# Two-squares counts in sublinear time
# ----------------------------------------------------------------------------
#
# Both stages work on the quotient table of x: the values floor(x/k) for
# k >= 1, held at position v for v <= r = isqrt(x) and at position r + 1 + k
# for v = x // k, k = 1..r.  Position r + 1 is unused, and v = r may appear
# at two positions, which then get the same updates.

_PAIR_BLOCK = 1 << 18  # (k, p) pairs per block of the batched updates


def _quotient_positions(r: int, large: np.ndarray, q: int, kmax: int) -> np.ndarray:
    """Table positions of x // (k*q) for k = 1..kmax, where large[k] = x // k:
    r + 1 + k*q while k*q <= r, else the value x // (k*q) <= r itself."""
    kd = min(kmax, r // q)
    return np.concatenate(
        [np.arange(r + 1 + q, r + 2 + kd * q, q), large[kd + 1 : kmax + 1] // q]
    )


def _tail_pairs(r: int, large: np.ndarray, tail: np.ndarray):
    """Blocks (k0, k1, starts, t, pos) of the pairs (k, p) with p in tail
    (ascending primes with p^3 > x) and p^2 <= x // k, in k-major order.
    A block holds k = k0+1..k1, the pairs of k = k0+1+j begin at starts[j],
    t indexes tail, and pos is the table position of x // (k*p)."""
    if not tail.size:
        return
    kmax = int(large[1]) // int(tail[0]) ** 2
    per_k = np.searchsorted(tail * tail, large[1 : kmax + 1], side="right")
    ends = np.cumsum(per_k)
    k0 = 0
    while k0 < kmax:
        done = int(ends[k0 - 1]) if k0 else 0
        k1 = min(kmax, max(k0 + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right"))))
        m = per_k[k0:k1]
        starts = np.cumsum(m) - m
        t = np.arange(int(ends[k1 - 1]) - done) - np.repeat(starts, m)
        k = np.repeat(np.arange(k0 + 1, k1 + 1), m)
        kp = k * tail[t]
        pos = np.where(kp <= r, r + 1 + kp, large[k] // tail[t])
        yield k0, k1, starts, t, pos
        k0 = k1


def _prime_counts_mod4(x: int):
    """(large, primes, pi1): large[k] = x // k for k = 1..r = isqrt(x), the
    primes up to r, and over the quotient table of x the number pi1 of
    primes p = 1 (mod 4) up to each value.

    Lucy_Hedgehog's recursion on T(v), the odd integers in [3, v] with no
    odd prime factor below the current p, and D(v), the sum of chi_4 over
    them.  Sieving by an odd prime p takes from every v >= p^2

        T(v) -= T(v // p) - T(p - 1),   D(v) -= chi_4(p) (D(v // p) - D(p - 1)),

    one slice update per array that reads only values from before it.
    After the primes up to sqrt(v), T(v) counts the odd primes up to v and
    D(v) sums chi_4 over them, so pi1 = (T + D) / 2.  The primes with
    p^3 > x go last, in one batch: they change only the v = x // k with
    k < p, and read only values that none of them changes.
    """
    r = isqrt(x)
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = x // np.arange(1, r + 1)
    v = np.concatenate([np.arange(r + 1, dtype=np.int64), large])
    T = np.maximum(v - 1, 0) // 2
    D = np.where((v % 4 == 0) | (v % 4 == 3), -1, 0)
    D[0] = D[r + 1] = 0  # the unused v = 0
    del v
    primes = primes_upto(r)
    odd = primes[1:]
    head = np.count_nonzero(odd * odd <= x // odd)  # p^3 <= x, without overflow
    for p in odd[:head].tolist():
        kmax = min(r, x // (p * p))
        pos = _quotient_positions(r, large, p, kmax)
        for arr, sign in ((T, 1), (D, 1 if p % 4 == 1 else -1)):
            base = int(arr[p - 1])
            quotients = arr.take(pos) - base
            if p * p <= r:
                arr[p * p : r + 1] -= sign * (np.repeat(arr[p : r // p + 1], p)[: r + 1 - p * p] - base)
            arr[r + 2 : r + 2 + kmax] -= sign * quotients
    tail = odd[head:]
    chi = np.where(tail % 4 == 1, 1, -1)
    for k0, k1, starts, t, pos in _tail_pairs(r, large, tail):
        p1 = tail[t] - 1
        T[r + 2 + k0 : r + 2 + k1] -= np.add.reduceat(T[pos] - T[p1], starts)
        D[r + 2 + k0 : r + 2 + k1] -= np.add.reduceat(chi[t] * (D[pos] - D[p1]), starts)
    T += D
    return large, primes, T // 2


def _two_squares_upto(x: int) -> int:
    """B(x), the number of n in [1, x] that are sums of two squares, exactly
    and in int64.  At x = 1e10 it took 0.32 s and 23 MiB of peak RSS above
    that of the import, on a 2-core AVX-512 Xeon; time grows about like
    x^0.72 and memory like sqrt(x).

    n is a sum of two squares exactly when f(n) = 1 for the multiplicative f
    with f(2^e) = 1, f(p^e) = 1 for p = 1 (mod 4) and f(p^e) = [e even] for
    p = 3 (mod 4).  This is min_25's pass over the quotient table.  G(v)
    starts as the sum of f over the primes up to v, pi1(v) + [v >= 2]
    (_prime_counts_mod4), and takes the primes p <= sqrt(x) in descending
    order; after p, G(v) sums f(n) over the n in [2, v] that are prime or
    have no prime factor below p.  Taking p adds to every v >= p^2

        sum over e >= 1 with p^(e+1) <= v of f(p^e) (G(v // p^e) - G(p)) + f(p^(e+1)),

    from values before the update.  The primes with p^3 > x go first, in one
    batch: they have e = 1 only, and they read only values that none of
    them changes.  B(x) = G(x) + 1, for n = 1.
    """
    if x < 2:
        return max(x, 0)
    large, primes, g = _prime_counts_mod4(x)
    r = isqrt(x)
    g[2 : r + 1] += 1
    g[r + 2 :] += 1
    head = np.count_nonzero(primes * primes <= x // primes)
    tail = primes[head:]
    g_tail = g[tail]
    three = tail % 4 == 3
    for k0, k1, starts, t, pos in _tail_pairs(r, large, tail):
        terms = np.where(three[t], 1, g[pos] - g_tail[t] + 1)
        g[r + 2 + k0 : r + 2 + k1] += np.add.reduceat(terms, starts)
    for p in primes[:head][::-1].tolist():
        kmax = min(r, x // (p * p))
        add_large = np.zeros(kmax, dtype=np.int64)
        add_small = np.zeros(max(0, r + 1 - p * p), dtype=np.int64)
        g_p = int(g[p])
        pe, e = p, 1
        while pe * p <= x:
            km = min(r, x // (pe * p))
            at = pe * p - p * p  # where v = pe * p sits in add_small
            if p % 4 != 3 or e % 2 == 0:  # f(p^e) = 1
                add_large[:km] += g.take(_quotient_positions(r, large, pe, km)) - g_p
                if pe * p <= r:
                    add_small[at:] += np.repeat(g[p : r // pe + 1], pe)[: r + 1 - pe * p] - g_p
            if p % 4 != 3 or e % 2 == 1:  # f(p^(e+1)) = 1
                add_large[:km] += 1
                if pe * p <= r:
                    add_small[at:] += 1
            pe *= p
            e += 1
        g[r + 2 : r + 2 + kmax] += add_large
        g[p * p : r + 1] += add_small
    return int(g[r + 2]) + 1


# ----------------------------------------------------------------------------
# Window divisor-distribution engine
# ----------------------------------------------------------------------------

def _t_grid(t_grid) -> tuple[float, ...]:
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise DomainError("t grid is empty")
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise DomainError("t grid must lie within [0, 1]")
    return ts


def _columns(ts: tuple[float, ...], hi: int) -> list[tuple[int, float, bool, float]]:
    """(index, t, upper, limit) for each grid point, in column order: the
    grid index, its t, whether it is in the upper half (t > 1/2), and the
    bound e * log(2*hi), with e = 1 - t in the upper half and t in the lower,
    at or above which log d has no run (_run_starts).

    Lower half by ascending t, upper half by descending t: run starts then
    descend within a half, so the runs nest.
    """
    lower = sorted((i for i, t in enumerate(ts) if t <= 0.5), key=lambda i: ts[i])
    upper = sorted((i for i, t in enumerate(ts) if t > 0.5), key=lambda i: -ts[i])
    log_2hi = math.log(2.0 * hi)
    return [(i, ts[i], False, ts[i] * log_2hi) for i in lower] + [
        (i, ts[i], True, (1.0 - ts[i]) * log_2hi) for i in upper
    ]


def _run_starts(d: int, columns, hi: int) -> list:
    """Per column, the smallest k >= 1 at which n = d*k passes the column's
    threshold test, or None when that n lies past 2*hi (such a run is empty
    in every chunk).

    Lower half: divisor_le_threshold(d, n, t).  Upper half: the cofactor k
    exceeds n**t, i.e. not divisor_le_threshold(k, n, t).  Both tests hold
    from their start on.  When log d reaches the column's limit there is no
    run, except for the divisor 1 in the lower half (1 <= n**0).  Otherwise
    the hint n = d**(1/t), resp. d**(1/(1-t)), only seeds a galloping search,
    since the predicate's guard band can move the start far from it (d = 1
    with t within 1e-12 of 1).
    """
    log_d = math.log(d)
    starts = []
    for _, t, upper, limit in columns:
        if log_d >= limit:
            starts.append(1 if d == 1 and not upper else None)
            continue
        k = math.ceil(math.exp(log_d / (1.0 - t if upper else t)) / d)
        fail, ok, step = 0, 2 * hi // d + 1, 1  # the start lies in (fail, ok]
        while ok - fail > 1:
            if not fail < k < ok:
                k = (fail + ok) // 2
            if upper:
                passes = not divisor_le_threshold(k, d * k, t)
            else:
                passes = divisor_le_threshold(d, d * k, t)
            if passes:
                ok, k = k, k - step
            else:
                fail, k = k, k + step
            step *= 2
        starts.append(ok if d * ok <= 2 * hi else None)
    return starts


def _worker_count() -> int:
    """Worker processes for one engine call: the CPUs this process may run
    on, or 1 where fork() is unavailable or unsafe.  A daemonic worker of a
    multiprocessing pool may not have children, and fork() copies only the
    calling thread, so a lock that another thread holds would stay locked in
    the child."""
    import multiprocessing
    import threading

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return 1
    return specfun._cpu_count()


def _over_subranges(fn, lo: int, hi: int, *args) -> list:
    """[fn(a, b, *args) for each sub-range (a, b] of (lo, hi]], in order.

    The sub-ranges are contiguous, one per worker, and cut at the chunk
    boundaries lo + k*_CHUNK nearest to equal shares of the integers.  They
    run in forked worker processes of a pool that lives for this call only;
    with one sub-range, fn runs in this process.
    """
    workers = min(_worker_count(), -(-(hi - lo) // _CHUNK))
    per_worker = (hi - lo) / (workers * _CHUNK)  # chunks, possibly fractional
    cuts = sorted({lo, hi} | {lo + _CHUNK * round(j * per_worker) for j in range(1, workers)})
    if len(cuts) == 2:
        return [fn(lo, hi, *args)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(len(cuts) - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, a, b, *args) for a, b in zip(cuts, cuts[1:])]
        return [f.result() for f in futures]


def _window_partials(lo: int, hi: int, window_hi: int, ts, two_squares: bool):
    """(count, partials) of the engine's chunks of (lo, hi], a sub-range of a
    window that ends at window_hi: partials[c] holds floats whose exact sum
    is that of the run sums of column c (see _mean_divisor_cdf), each over
    one run inside one chunk.  The divisor bound and the run starts come
    from window_hi, so each chunk gets the run sums of a whole-window scan.

    The chunks are those of the iterator scanned: the parity sieve's
    (chunk_lo, mask) pairs for sums of two squares, else (chunk_lo, None)
    for every integer.  A mask thus always belongs to its own chunk."""
    columns = _columns(ts, window_hi)
    n_lower = sum(not upper for _, _, upper, _ in columns)
    D = isqrt(window_hi)
    starts = [None] * D  # run starts of d, found when d first has a multiple
    partials = [[] for _ in columns]
    count = 0
    if two_squares:
        chunks = two_squares_count_and_masks(lo, hi)
    else:
        chunks = ((clo, None) for clo in range(lo, hi, _CHUNK))

    for clo, mask in chunks:
        chigh = min(clo + _CHUNK, hi)
        m = chigh - clo
        tau = np.zeros(m, dtype=np.int32)
        live = []
        for d in range(1, D + 1):
            k_lo = clo // d + 1
            k_hi = chigh // d
            if k_lo > k_hi:
                continue
            off = d * k_lo - clo - 1  # position of first multiple in chunk
            live.append((d, k_lo, k_hi, off))
            # tau: pairs d < sqrt(n) add 2; d = sqrt(n) adds 1
            k_pair = max(k_lo, d + 1)
            if k_pair <= k_hi:
                tau[off + (k_pair - k_lo) * d :: d] += 2
            if k_lo <= d <= k_hi:
                tau[off + (d - k_lo) * d] += 1
        w = 1.0 / tau
        if mask is None:
            count += m
        else:
            count += int(mask.sum())
            w[~mask] = 0.0
        for d, k_lo, k_hi, off in live:
            ks = starts[d - 1]
            if ks is None:
                ks = starts[d - 1] = _run_starts(d, columns, window_hi)
            # Only the first run of a half ends at k_hi; when both halves
            # start it at the same a (mostly the whole chunk), sum it once.
            first = None
            for c0, c1 in ((0, n_lower), (n_lower, len(columns))):
                b = k_hi + 1  # run upper bound (exclusive)
                for c in range(c0, c1):
                    kc = ks[c]
                    if kc is None:
                        continue
                    a = max(kc, k_lo)
                    if a < b:
                        if b > k_hi and first is not None and first[0] == a:
                            total = first[1]
                        else:
                            run = w[off + (a - k_lo) * d : off + (b - 1 - k_lo) * d + 1 : d]
                            total = float(run.sum())
                            if b > k_hi:
                                first = (a, total)
                        partials[c].append(total)
                    if kc <= k_lo:
                        break
                    b = min(kc, k_hi + 1)
        partials = [_exact_terms(xs) for xs in partials]
    return count, partials


def _exact_terms(xs: list[float]) -> list[float]:
    """A few floats whose exact sum is that of xs: the correctly rounded sum
    (math.fsum), then the correctly rounded remainder, and so on until it is
    0.  Every fsum over them and other floats is thus the same bits as over
    xs; compressing after each chunk keeps the run sums from growing with
    the window.  Appends to xs."""
    terms = []
    while (s := math.fsum(xs)) != 0.0:
        terms.append(s)
        xs.append(-s)
    return terms


def _mean_divisor_cdf(lo: int, hi: int, t_grid: tuple[float, ...], two_squares: bool = False):
    """(count, sums) with sums[i] = sum over selected n in (lo, hi] of F_n(t_i).

    Each divisor of n pairs as d <-> n/d with d <= sqrt(n), and both halves
    are decided by arith.divisor_le_threshold, the predicate of the exact
    per-n F_n(t) that the tests hold as their oracle.
    For t <= 1/2, F_n(t) is the share of small divisors d with d <= n**t.
    For t > 1/2 every small divisor lies below n**t, and F_n(t) is 1 minus
    the share of small divisors whose cofactor n/d exceeds n**t.

    The sum is linear in those shares, so nothing is kept per n and grid
    point.  A small divisor d passes a threshold on a run of its multiples
    d*k, k >= start, and adds w(n) = 1/tau(n) to the share of each n there
    (w = 0 for n that are not sums of two squares when two_squares is set).  Columns are ordered so that the runs of
    a half nest; each column records the sum of w over the part of its run
    that the previous column lacks, and its total is the correctly rounded
    sum (math.fsum) of its own and all earlier partial sums in its half.

    The chunks of (lo, hi] are split into contiguous sub-ranges that worker
    processes scan (_over_subranges).  A partial sum depends only on its own
    chunk, and fsum does not depend on the order of its inputs, so the sums
    are the same bits for any number of workers.  After every chunk each
    column's partial sums are replaced by a few floats with the same exact
    sum (_exact_terms), so memory does not grow with the window.
    """
    ts = _t_grid(t_grid)
    columns = _columns(ts, hi)
    n_lower = sum(not upper for _, _, upper, _ in columns)
    parts = _over_subranges(_window_partials, lo, hi, hi, ts, two_squares)
    count = sum(c for c, _ in parts)
    sums = np.zeros(len(ts), dtype=np.float64)
    for c0, c1 in ((0, n_lower), (n_lower, len(columns))):
        prefix = []
        for c in range(c0, c1):
            for _, partials in parts:
                prefix += partials[c]
            s = math.fsum(prefix)
            sums[columns[c][0]] = count - s if c >= n_lower else s
    return count, sums


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def _two_squares_law(t: float) -> float:
    """I_t(1/4, 1/4), the limit law of F_n(t) over sums of two squares."""
    return specfun.reg_inc_beta(t, 0.25, 0.25)


def _make_report(indicator, law, x, y, theta, ts, count, sums) -> LawReport:
    empirical = tuple(float(s / count) for s in sums)
    predicted = tuple(law(t) for t in ts)
    sup = max(abs(e - p) for e, p in zip(empirical, predicted))
    return LawReport(
        x=int(x),
        y=float(y),
        theta=float(theta),
        indicator=indicator,
        t_grid=tuple(float(t) for t in ts),
        empirical=empirical,
        predicted=predicted,
        sup_error=sup,
        count=count,
    )


def ddt_mean(x: int, t_grid=DEFAULT_T_GRID) -> LawReport:
    """Plain Cesaro mean (1/x) sum_{n<=x} F_n(t) against the arcsine law."""
    if x < 2:
        raise DomainError("x must be at least 2")
    if x > _WIDTH_GUARD:
        raise CapacityError(f"x={x} exceeds guard {_WIDTH_GUARD}")
    ts = _t_grid(t_grid)
    count, sums = _mean_divisor_cdf(0, x, ts)
    return _make_report("all", arcsine_law, x, float(x), 1.0, ts, count, sums)


# A square-full n <= _WINDOW_GUARD has at most 8 distinct primes, since
# (2*3*5*...*23)^2 > 1e15, and each exponent 2*e_a + 3*e_b is below 64.
_MAX_PRIMES = 8
# Members per block of the square-full mean; entries of the (members x
# primes) trial-division matrix and comparisons (members x grid points x
# divisors) made at once.
_SQUAREFULL_BLOCK = 2048
_FACTOR_BUDGET = 1 << 15
_COMPARE_BUDGET = 1 << 16
_POWERS = tuple(np.arange(e + 1)[:, None] for e in range(64))  # 0, 1, ..., e as a column


def _squarefull_sums(lo: int, hi: int, ts):
    """(count, sums) over the square-full n in (lo, hi]: sums[i] is the sum
    of F_n(ts[i]), the same bits as this loop over the members n in
    ascending order, factored with ascending primes p_j and exponents e_j:

        logs = divisor_logs([(p_1, e_1), (p_2, e_2), ...])  # tests/oracles.py
        cut = threshold_log_cut(math.log(n), ts[i])
        sums[i] += np.searchsorted(np.sort(logs), cut, side="right") / logs.size

    The members are int64 arrays (_squarefull_members), taken in blocks of
    _SQUAREFULL_BLOCK.  Each block is factored through n = a^2 b^3 by trial
    division of a and b (_factor_a2b3).  Members of one exponent shape get
    their divisor logs side by side, with the float operations of
    divisor_logs in its order (_squarefull_counts); the counts of logs
    below a cut are integers, so how they are counted cannot move a bit.
    The shares count / tau(n) are then added in member order: a cumulative
    sum down the block, with the running sums added into its first row,
    makes the loop's additions in the loop's order.
    """
    n, a, b = _squarefull_members(lo, hi)
    if not n.size:
        raise EmptyIntervalError(f"no square-full numbers in ({lo}, {hi}]")
    t_arr = np.array(ts, dtype=np.float64)
    primes = primes_upto(isqrt(max(int(a.max()), int(b.max()))))
    sums = np.zeros(len(ts))
    for s in range(0, n.size, _SQUAREFULL_BLOCK):
        blk = slice(s, s + _SQUAREFULL_BLOCK)
        shares, tau = _squarefull_counts(n[blk], a[blk], b[blk], primes, t_arr)
        shares /= tau[:, None]
        shares[0] += sums
        sums = np.cumsum(shares, axis=0, out=shares)[-1]
    return int(n.size), sums


def _squarefull_counts(n, a, b, primes, t_arr):
    """(counts, tau): counts[r, i] is the number of divisors d of member r
    with log d <= threshold_log_cut(log n, t_arr[i]), and tau[r] = tau(n).

    The members are sorted by exponent shape (the exponents in
    ascending-prime order, which fix the order of the float additions), and
    those of one shape get their divisor logs side by side
    (_shape_divisor_logs), with one math.log per distinct prime."""
    P, E = _factor_a2b3(a, b, primes)
    tau = np.prod(E + 1, axis=1)
    key = (E << (6 * np.arange(_MAX_PRIMES))).sum(axis=1)
    order = np.argsort(key, kind="stable")
    E, key = E[order], key[order]
    distinct = np.sort(P, axis=None)
    distinct = distinct[np.diff(distinct, prepend=0) > 0]  # np.unique would import numpy.ma
    L = np.array([math.log(p) for p in distinct.tolist()])[np.searchsorted(distinct, P[order])]
    log_n = np.array([math.log(v) for v in n[order].tolist()])
    counts = np.empty((n.size, t_arr.size))
    first = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for s0, s1 in zip(first, first[1:] + [n.size]):
        exps = [e for e in E[s0].tolist() if e] or [0]  # n = 1: p = 1, log p = 0.0
        step = max(1, _COMPARE_BUDGET // (int(tau[order[s0]]) * t_arr.size))
        for r0 in range(s0, s1, step):
            r = slice(r0, min(r0 + step, s1))
            logs = _shape_divisor_logs(L[r], exps)
            cut = threshold_log_cut(log_n[r, None], t_arr)
            counts[order[r]] = (logs[:, None, :] <= cut[:, :, None]).sum(axis=2)
    return counts, tau


def _shape_divisor_logs(L, exps) -> np.ndarray:
    """divisor_logs (tests/oracles.py) for many members of one exponent
    shape: row r holds log d for every divisor d of the product of
    p_j**exps[j], where L[r, j] is math.log(p_j), from the same float
    operations in the same order (slot j adds j * log p_j to every log so
    far).  Slot 0 starts from log 1 = 0.0, and 0.0 + x is x."""
    logs = _POWERS[exps[0]].T * L[:, :1]
    for j, e in enumerate(exps[1:], 1):
        logs = (_POWERS[e] * L[:, j, None, None] + logs[:, None, :]).reshape(L.shape[0], -1)
    return logs


def _factor_a2b3(a, b, primes):
    """(P, E): the ascending primes and the exponents of n = a^2 b^3, b
    squarefree, one row per member, padded with p = 1, e = 0.

    a and b are trial-divided by the primes up to sqrt(max(a, b)), which
    leaves each of them 1 or a prime above those.  A prime of both a and b
    has exponent 2 e_a + 3.
    """
    P = np.ones((a.size, _MAX_PRIMES), dtype=np.int64)
    E = np.zeros((a.size, _MAX_PRIMES), dtype=np.int64)
    primes = primes[: np.searchsorted(primes, isqrt(max(int(a.max()), int(b.max()))), side="right")]
    step = max(1, _FACTOR_BUDGET // max(1, primes.size))
    for s in range(0, a.size, step):
        a_s, b_s = a[s : s + step], b[s : s + step]
        rows, cols = np.nonzero((a_s * b_s)[:, None] % primes == 0)  # row by row
        p = primes[cols]
        rest = a_s[rows]
        e_a = np.zeros(rows.size, dtype=np.int64)
        while (div := rest % p == 0).any():
            rest[div] //= p[div]
            e_a[div] += 1
        in_b = b_s[rows] % p == 0
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)
        P[s + rows, slot] = p
        E[s + rows, slot] = 2 * e_a + 3 * in_b
        rest_a, rest_b = a_s.copy(), b_s.copy()
        np.floor_divide.at(rest_a, rows, p**e_a)
        np.floor_divide.at(rest_b, rows[in_b], p[in_b])
        # the leftovers follow, the smaller one first
        slot = np.bincount(rows, minlength=a_s.size)
        same, a_first = rest_a == rest_b, rest_a < rest_b
        for q, e, keep in (
            (np.minimum(rest_a, rest_b), np.where(same, 5, np.where(a_first, 2, 3)), True),
            (np.maximum(rest_a, rest_b), np.where(a_first, 3, 2), ~same),
        ):
            r = np.flatnonzero((q > 1) & keep)
            P[s + r, slot[r]] = q[r]
            E[s + r, slot[r]] = e[r]
            slot[r] += 1
    return P, E


def weighted_fn_mean(indicator: str, spec: IntervalSpec, t_grid=DEFAULT_T_GRID) -> LawReport:
    """Indicator-weighted mean of F_n(t) over the window, with the matching
    limit-law prediction: I_t(1/4, 1/4) for sums of two squares and
    squarefull_divisor_law for square-full n."""
    ts = _t_grid(t_grid)
    if indicator == "squarefull":
        law = squarefull_divisor_law
        count, sums = _squarefull_sums(spec.lo, spec.hi, ts)
    elif indicator == "two_squares":
        law = _two_squares_law
        _check_two_squares_window(spec.lo, spec.hi)
        count, sums = _mean_divisor_cdf(spec.lo, spec.hi, ts, two_squares=True)
        if count == 0:
            raise EmptyIntervalError(f"no sums of two squares in ({spec.lo}, {spec.hi}]")
    else:
        raise DomainError(f"unknown indicator {indicator!r}")
    return _make_report(indicator, law, spec.x, spec.y, spec.theta, ts, count, sums)
