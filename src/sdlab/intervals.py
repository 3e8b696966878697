"""Short- and long-interval statistics: square-full enumeration, sums-of-two-
squares window counts, Cesaro means of the divisor distribution F_n(t), and
comparisons against their limit laws (arcsine, beta, and the square-full law).

The window engine never factors individual integers.  Divisor statistics come
from looping d <= sqrt(hi) over multiples: small divisors determine F_n(t) on
both halves of [0,1] through the d <-> n/d pairing, and arith's
divisor_le_threshold decides both halves, the upper one on the cofactor n/d.
The passing multiples of each d form a run, and the mean is linear in the
shares, so the engine sums w(n) = 1/tau(n) over each run and takes a prefix
sum over the grid columns; it keeps no per-n count matrix.  Square-full
members come from the a^2 b^3 parametrization with b squarefree, and the
two-squares indicator comes from a segmented parity sieve over primes
p = 3 (mod 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import specfun
from .arith import divisor_le_threshold, primes_upto, _THRESHOLD_GUARD
from .errors import CapacityError, DomainError, EmptyIntervalError

__all__ = [
    "DEFAULT_T_GRID",
    "IntervalSpec",
    "LawReport",
    "enumerate_squarefull",
    "count_two_squares",
    "two_squares_count_and_masks",
    "ddt_mean",
    "weighted_fn_mean",
    "arcsine_law",
    "squarefull_divisor_law",
]

DEFAULT_T_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

_WINDOW_GUARD = 10**15
_WIDTH_GUARD = 10**9
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


def enumerate_squarefull(lo: int, hi: int) -> list[int]:
    """All square-full integers in (lo, hi], via n = a^2 b^3, b squarefree.

    The representation is unique, so no deduplication is needed.
    """
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if hi > _WINDOW_GUARD:
        raise CapacityError(f"hi={hi} exceeds guard {_WINDOW_GUARD}")
    bmax = round(hi ** (1.0 / 3.0)) + 2
    sqfree = _squarefree_table(bmax)
    out: list[int] = []
    for b in range(1, bmax + 1):
        if not sqfree[b]:
            continue
        b3 = b * b * b
        if b3 > hi:
            break
        a = isqrt(lo // b3)
        while a * a * b3 <= lo:
            a += 1
        n = a * a * b3
        while n <= hi:
            out.append(n)
            a += 1
            n = a * a * b3
    out.sort()
    return out


# ----------------------------------------------------------------------------
# Two-squares segmented parity sieve
# ----------------------------------------------------------------------------

def two_squares_count_and_masks(lo: int, hi: int, chunk: int = _CHUNK):
    """Yield (chunk_lo, mask) for n in (chunk_lo, chunk_lo+len(mask)] where
    mask marks integers representable as a sum of two squares.

    Exactness: strip every prime p = 3 (mod 4) up to sqrt(hi) while tracking
    exponent parity, remove the powers of two, and test the odd cofactor mod 4
    (it is a product of p = 1 (mod 4) primes times at most one prime > sqrt(hi)).
    """
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    if hi > _WINDOW_GUARD:
        raise CapacityError(f"hi={hi} exceeds guard {_WINDOW_GUARD}")
    if hi - lo > _WIDTH_GUARD:
        raise CapacityError(f"window width {hi - lo} exceeds guard {_WIDTH_GUARD}")
    primes = primes_upto(isqrt(hi))
    primes3 = [int(p) for p in primes[primes % 4 == 3]]
    for clo in range(lo, hi, chunk):
        chi_ = min(clo + chunk, hi)
        m = chi_ - clo
        residual = np.arange(clo + 1, chi_ + 1, dtype=np.int64)
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
                    view = residual[st::pe]
                    np.floor_divide(view, p, out=view)
                    flip[st::pe] ^= True
                pe *= p
            bad[start::p] |= flip[start::p]
            flip[start::p] = False
        pe = 2
        while pe <= chi_:
            st = (-(clo + 1)) % pe
            if st < m:
                view = residual[st::pe]
                np.floor_divide(view, 2, out=view)
            pe *= 2
        bad |= (residual & 3) == 3
        yield clo, ~bad


def count_two_squares(lo: int, hi: int) -> int:
    """Exact count of sums of two squares in (lo, hi]."""
    return int(sum(int(mask.sum()) for _, mask in two_squares_count_and_masks(lo, hi)))


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


def _run_start(d: int, t: float, upper: bool, hi: int):
    """Smallest k >= 1 at which n = d*k passes the half's threshold test, or
    None when that n lies past 2*hi (such a run is empty in every chunk).

    Lower half: divisor_le_threshold(d, n, t).  Upper half: the cofactor k
    exceeds n**t, i.e. not divisor_le_threshold(k, n, t).  Both tests hold
    from their start on.  The hint n = d**(1/t), resp. d**(1/(1-t)), only
    seeds a galloping search, since the predicate's guard band can move the
    start far from it (d = 1 with t within 1e-12 of 1).
    """
    e = 1.0 - t if upper else t
    log_d = math.log(d)
    if log_d >= e * math.log(2.0 * hi):
        return 1 if d == 1 and not upper else None  # divisor 1 is <= n**0

    def passes(k: int) -> bool:
        if upper:
            return not divisor_le_threshold(k, d * k, t)
        return divisor_le_threshold(d, d * k, t)

    k = math.ceil(math.exp(log_d / e) / d)
    fail, ok, step = 0, 2 * hi // d + 1, 1  # the start lies in (fail, ok]
    while ok - fail > 1:
        if not fail < k < ok:
            k = (fail + ok) // 2
        if passes(k):
            ok, k = k, k - step
        else:
            fail, k = k, k + step
        step *= 2
    return ok if d * ok <= 2 * hi else None


def _mean_divisor_cdf(
    lo: int,
    hi: int,
    t_grid: tuple[float, ...],
    mask_chunks=None,
    chunk: int = _CHUNK,
):
    """(count, sums) with sums[i] = sum over selected n in (lo, hi] of F_n(t_i).

    Each divisor of n pairs as d <-> n/d with d <= sqrt(n), and both halves
    are decided by arith.divisor_le_threshold, as in the per-n divisor_cdf.
    For t <= 1/2, F_n(t) is the share of small divisors d with d <= n**t.
    For t > 1/2 every small divisor lies below n**t, and F_n(t) is 1 minus
    the share of small divisors whose cofactor n/d exceeds n**t.

    The sum is linear in those shares, so nothing is kept per n and grid
    point.  A small divisor d passes a threshold on a run of its multiples
    d*k, k >= start, and adds w(n) = 1/tau(n) to the share of each n there
    (w = 0 for n outside the mask).  Columns are ordered so that the runs of
    a half nest; each column records the sum of w over the part of its run
    that the previous column lacks, and its total is the correctly rounded
    sum (math.fsum) of its own and all earlier partial sums in its half.

    mask_chunks: optional iterable of (chunk_lo, bool mask) aligned with the
    chunking used here; None selects every integer in the window.
    """
    ts = _t_grid(t_grid)
    # lower half by ascending t, upper half by descending t: run starts then
    # descend within a half, so the runs nest
    lower = sorted((i for i, t in enumerate(ts) if t <= 0.5), key=lambda i: ts[i])
    upper = sorted((i for i, t in enumerate(ts) if t > 0.5), key=lambda i: -ts[i])
    order = lower + upper
    halves = ((0, len(lower), False), (len(lower), len(order), True))

    D = isqrt(hi)
    starts = [None] * D  # run starts of d, found when d first has a multiple
    partials = [[] for _ in order]
    count = 0
    mask_iter = iter(mask_chunks) if mask_chunks is not None else None

    for clo in range(lo, hi, chunk):
        chigh = min(clo + chunk, hi)
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
        if mask_iter is not None:
            mlo, mask = next(mask_iter, (None, None))
            if mlo != clo or mask.shape[0] != m:
                raise DomainError("mask chunks misaligned with window chunks")
            count += int(mask.sum())
            w[~mask] = 0.0
        else:
            count += m
        for d, k_lo, k_hi, off in live:
            ks = starts[d - 1]
            if ks is None:
                ks = starts[d - 1] = [
                    _run_start(d, ts[i], c >= len(lower), hi) for c, i in enumerate(order)
                ]
            for c0, c1, _ in halves:
                b = k_hi + 1  # run upper bound (exclusive)
                for c in range(c0, c1):
                    kc = ks[c]
                    if kc is None:
                        continue
                    a = max(kc, k_lo)
                    if a < b:
                        run = w[off + (a - k_lo) * d : off + (b - 1 - k_lo) * d + 1 : d]
                        partials[c].append(float(run.sum()))
                    if kc <= k_lo:
                        break
                    b = min(kc, k_hi + 1)
    if mask_iter is not None and next(mask_iter, None) is not None:
        raise DomainError("mask chunks misaligned with window chunks")

    sums = np.zeros(len(ts), dtype=np.float64)
    for c0, c1, upper_half in halves:
        prefix = []
        for c in range(c0, c1):
            prefix += partials[c]
            s = math.fsum(prefix)
            sums[order[c]] = count - s if upper_half else s
    return count, sums


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def _law_prediction(indicator: str, ts) -> tuple[float, ...]:
    """Limit law of the mean of F_n(t) over the indicator's n: arcsine for
    all n, I_t(1/4, 1/4) for sums of two squares, and squarefull_divisor_law
    for square-full n."""
    if indicator == "all":
        return tuple(arcsine_law(t) for t in ts)
    if indicator == "squarefull":
        return tuple(squarefull_divisor_law(t) for t in ts)
    if indicator == "two_squares":
        return tuple(specfun.reg_inc_beta(t, 0.25, 0.25) for t in ts)
    raise DomainError(f"unknown indicator {indicator!r}")


def _make_report(indicator, x, y, theta, ts, count, sums) -> LawReport:
    empirical = tuple(float(s / count) for s in sums)
    predicted = _law_prediction(indicator, ts)
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
    return _make_report("all", x, float(x), 1.0, ts, count, sums)


def _squarefull_window_mean(spec: IntervalSpec, ts):
    members = enumerate_squarefull(spec.lo, spec.hi)
    if not members:
        raise EmptyIntervalError(f"no square-full numbers in ({spec.lo}, {spec.hi}]")
    t_arr = np.array(ts, dtype=np.float64)
    sums = np.zeros(len(ts))
    for n in members:
        logs = _divisor_logs_squarefull(n)
        logs.sort()
        cut = t_arr * math.log(n) + _THRESHOLD_GUARD
        sums += np.searchsorted(logs, cut, side="right") / logs.size
    return len(members), sums


def _divisor_logs_squarefull(n: int) -> np.ndarray:
    exps = _factor_squarefull(n)
    divs = np.array([0.0], dtype=np.float64)
    for p, e in exps.items():
        lp = math.log(p)
        divs = (divs[:, None] + np.arange(e + 1)[None, :] * lp).reshape(-1)
    return divs


def _factor_squarefull(n: int) -> dict[int, int]:
    """Factor a square-full n: trial division to n^(1/3); the leftover has all
    exponents >= 2 and no prime <= its cube root, so it is p^2 with p prime."""
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if m > 1:
        r = isqrt(m)
        if r * r != m:
            raise DomainError(f"{n} is not square-full")
        out[r] = out.get(r, 0) + 2
    return out


def weighted_fn_mean(indicator: str, spec: IntervalSpec, t_grid=DEFAULT_T_GRID) -> LawReport:
    """Indicator-weighted mean of F_n(t) over the window, with the matching
    limit-law prediction: I_t(1/4, 1/4) for sums of two squares and
    squarefull_divisor_law for square-full n."""
    ts = _t_grid(t_grid)
    if indicator == "squarefull":
        count, sums = _squarefull_window_mean(spec, ts)
    elif indicator == "two_squares":
        masks = two_squares_count_and_masks(spec.lo, spec.hi, chunk=_CHUNK)
        count, sums = _mean_divisor_cdf(spec.lo, spec.hi, ts, mask_chunks=masks)
        if count == 0:
            raise EmptyIntervalError(f"no sums of two squares in ({spec.lo}, {spec.hi}]")
    else:
        raise DomainError(f"unknown indicator {indicator!r}")
    return _make_report(indicator, spec.x, spec.y, spec.theta, ts, count, sums)
