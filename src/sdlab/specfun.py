"""Complex special functions: Gamma, zeta, Hurwitz zeta, Dirichlet L, principal
powers, and the (regularized incomplete) beta function.

All evaluations are double precision.  zeta and Hurwitz zeta use Euler-Maclaurin
summation with Bernoulli corrections through B_30.  Each point takes its own
head length M from its own |Im s|, on a ladder of multiples of 64 terms, so
the correction series keeps a fixed decay ratio on the whole strip
0 < Re s, |Im s| <= 1e4; the extended-precision phase switch and the tail
check go with that M.  A value therefore depends only on its own point, not
on the other points of its batch.  The vector functions take the absolute
tolerance of that truncation (1e-12 by default); the scalar ones always use
the default.

A vector call cuts its points, grouped by M, into blocks of head terms and
computes each block's head sums and corrections on one thread per CPU once
the batch spans more than one block.  Each point is its own row, which one
block alone writes, so the values are the same bits for any number of
threads.  A block's head terms are one array, exponentiated in place.
On the plain-phase path (_em_plan) zeta(conj s) is conj(zeta(s)) bit for
bit, so callers may fold conjugate pairs; not on the extended path, whose
phase reduction mod 2 pi is not symmetric, nor at Im s = +0.0.
"""

from __future__ import annotations

import cmath
import math
import os
from fractions import Fraction
from functools import lru_cache
import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    PoleError,
    PrincipalCharacterError,
)

__all__ = [
    "gamma_complex",
    "reciprocal_gamma",
    "zeta_complex",
    "zeta_many",
    "hurwitz_zeta",
    "dirichlet_l",
    "dirichlet_l_many",
    "complex_pow_principal",
    "beta_fn",
    "reg_inc_beta",
    "bernoulli_numbers",
]


# Euler-Maclaurin base head length and Bernoulli order (B_2 .. B_30).
_EM_BASE_TERMS = 64
_BERNOULLI_ORDER = 30


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------------
# Bernoulli numbers
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_numbers(order: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_0..B_order (B_1 = -1/2 convention)."""
    b = [Fraction(0)] * (order + 1)
    b[0] = Fraction(1)
    for m in range(1, order + 1):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b[m] = -acc / (m + 1)
    return tuple(b)


@lru_cache(maxsize=None)
def _bern_over_fact(order: int) -> np.ndarray:
    """B_{2k}/(2k)! as floats for k = 1..order//2 (plus one extra for the tail)."""
    bern = bernoulli_numbers(order + 2)
    ks = range(1, order // 2 + 2)
    return np.array([float(bern[2 * k] / math.factorial(2 * k)) for k in ks])


# ----------------------------------------------------------------------------
# Euler-Maclaurin core for Hurwitz zeta
# ----------------------------------------------------------------------------

def _em_plan(tau: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Head length M of each point: the correction-term ratio
    (|s| / 2 pi M)^2 stays small at the point's own tau = |Im s|, so
    bernoulli_order/2 corrections reach the target (a looser tolerance gets
    away with a shorter head), rounded up to a multiple of _EM_BASE_TERMS.
    And whether the point's phases go extended: double-precision phases
    round to ~tau*log(M)*eps, which must not eat into the tolerance."""
    factor = 0.5 if tol < 1e-8 else 0.3
    raw = np.maximum(_EM_BASE_TERMS, np.ceil(factor * tau) + 8)
    M = (-(-raw // _EM_BASE_TERMS) * _EM_BASE_TERMS).astype(np.int64)
    return M, tau * np.log(M + 1.0) * 1.2e-16 > 0.05 * tol


# Head-sum terms in flight over all threads of one _hurwitz_em call.
_EM_TERMS_IN_FLIGHT = 1 << 18

_TWO_PI_LD = 2.0 * np.pi * np.longdouble(1.0) + np.longdouble(2.4492935982947064e-16)


def _pow_negs(s: np.ndarray, log_base_ld, extended: bool) -> np.ndarray:
    """base**(-s) for s and each base, shape s.shape + shape of the bases;
    optional extended-precision phase reduction.

    tau * log(base) can reach ~1e5 on the permitted strip, where plain double
    phases lose ~|phase| * eps.  The 80-bit path reduces mod 2pi before
    rounding, keeping the phase error near 1 ulp.
    """
    log_base_ld = np.asarray(log_base_ld, dtype=np.longdouble)
    log_d = log_base_ld.astype(np.float64)
    if not extended:
        # in place: the same bits as exp(-outer) at half the peak memory
        t = np.multiply.outer(s, log_d)
        np.negative(t, out=t)
        return np.exp(t, out=t)
    # complex exp, as on the plain path: numpy's real float64 exp gives
    # different last bits on different SIMD targets, its complex exp does not
    mag = np.exp(-np.multiply.outer(s.real, log_d).astype(np.complex128)).real
    phase_ld = np.multiply.outer(s.imag.astype(np.longdouble), log_base_ld)
    phase = np.mod(phase_ld, _TWO_PI_LD).astype(np.float64)
    return mag * (np.cos(phase) - 1j * np.sin(phase))


def _hurwitz_em(
    s: np.ndarray,
    w: float,
    tol: float = 1e-12,
    deflate: bool = False,
) -> np.ndarray:
    """Vector Euler-Maclaurin evaluation of zeta(s, w) to the absolute
    tolerance tol.  Each point takes its head length M from its own |Im s|
    (_em_plan), and with it the extended-phase switch and the tail
    bound past which AccuracyError is raised, so its value is the same bits
    in any batch.  A head sum that is not finite raises AccuracyError too.

    With deflate=True the pole term 1/(s-1) is removed, i.e. the function
    returned is zeta(s, w) - 1/(s-1), which is entire in s.  This is what the
    L-function assembly needs at s = 1.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    s = np.asarray(s, dtype=np.complex128)
    if s.size == 0:
        return s.copy()
    flat = s.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("Euler-Maclaurin needs finite s")
    M, extended = _em_plan(np.abs(flat.imag), tol)
    # Points sorted by (M, extended): each run of one key is a group, cut
    # into blocks of at most _EM_TERMS_IN_FLIGHT // threads head terms, so
    # the terms in flight over all threads stay within _EM_TERMS_IN_FLIGHT.
    key = 2 * M + extended
    order = np.argsort(key, kind="stable")
    ss, key = flat[order], key[order]
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), ss.size]
    groups = [(lo, hi, int(key[lo]) >> 1, bool(key[lo] & 1)) for lo, hi in zip(bounds, bounds[1:])]
    log_ns_ld = np.log(np.arange(groups[-1][2], dtype=np.longdouble) + np.longdouble(w))
    threads = max(1, min(_cpu_count(), -(-int(M.sum()) // _EM_TERMS_IN_FLIGHT)))
    blocks = []
    for lo, hi, m, ext in groups:
        rows = max(1, _EM_TERMS_IN_FLIGHT // threads // m)
        blocks += [(i, min(i + rows, hi), m, ext) for i in range(lo, hi, rows)]
    out = np.empty_like(flat)

    def run(block):
        # head sum over n = 0..m-1 of (n+w)^{-s}, one row per point; for
        # w < 1 its first term overflows from Re s ~ 709 / log(1/w), which
        # must not pass (errstate is per thread, so it is set here)
        i, j, m, ext = block
        with np.errstate(over="ignore", invalid="ignore"):
            head = _pow_negs(ss[i:j], log_ns_ld[:m], ext).sum(axis=1)
        if not np.isfinite(head).all():
            raise AccuracyError(
                f"Euler-Maclaurin head sum overflows (w={w}, "
                f"Re s up to {ss[i:j].real.max():.6g})"
            )
        out[order[i:j]] = _em_sum(head, ss[i:j], w, m, ext, tol, deflate)

    if threads == 1:
        for block in blocks:
            run(block)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            # reading every result raises the first error of a block here
            list(pool.map(run, blocks))
    return out.reshape(s.shape)


def _em_sum(head, s, w, M, extended, tol, deflate):
    """The head sum plus the pole, half and Bernoulli terms of the
    Euler-Maclaurin sum with head length M; raises AccuracyError when the
    first omitted term exceeds tol or is nan."""
    K = _BERNOULLI_ORDER // 2
    mw = M + w
    log_mw = math.log(mw)
    log_mw_ld = np.log(np.longdouble(M) + np.longdouble(w))
    mw_pow_ms = _pow_negs(s, log_mw_ld, extended)
    if deflate:
        pole = np.where(
            s == 1.0,
            -log_mw,
            (mw * mw_pow_ms - 1.0) / np.where(s == 1.0, 1.0, s - 1.0),
        )
    else:
        pole = mw * mw_pow_ms / (s - 1.0)
    half = 0.5 * mw_pow_ms

    bof = _bern_over_fact(_BERNOULLI_ORDER)
    poch = s.copy()                     # (s)_1
    fac = mw_pow_ms / mw                # (M+w)^{-s-1}
    corr = np.zeros_like(s)
    # Past |s| ~ 4e10 poch overflows while fac underflows, and inf * 0 is
    # nan; the tail check rejects a nan tail.  errstate is per thread, so it
    # is set here, in the thread that computes the block.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            corr += bof[k - 1] * poch * fac
            if k < K:
                poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
                fac = fac / (mw * mw)
        # First omitted correction term bounds the truncation error up to a
        # small factor; treat it as the tail estimate.  It extends the last
        # term's poch * fac, so it is finite wherever the corrections are.
        ratio = (s + (2 * K - 1)) * (s + 2 * K) / (mw * mw)
        tail = np.max(np.abs(bof[K] * (poch * fac) * ratio))
    if not tail <= tol:
        raise AccuracyError(
            f"Euler-Maclaurin tail estimate {tail:.3e} exceeds target "
            f"{tol:.3e} (M={M}, bernoulli_order={_BERNOULLI_ORDER})"
        )
    return head + pole + half + corr


def _check_strip(s: complex) -> None:
    if s.real <= 0.0:
        raise DomainError(f"Euler-Maclaurin path requires Re s > 0, got {s}")


def zeta_complex(s: complex) -> complex:
    """Riemann zeta for Re s > 0, s != 1."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    _check_strip(s)
    return complex(_hurwitz_em(np.array([s]), 1.0)[0])


def zeta_many(s: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vector zeta over an array of points with Re s > 0, none equal to 1, to
    the absolute Euler-Maclaurin tolerance tol."""
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s == 1.0):
        raise PoleError("zeta has its pole at s = 1")
    if np.any(s.real <= 0.0):
        raise DomainError("zeta_many requires Re s > 0 everywhere")
    return _hurwitz_em(s, 1.0, tol)


def hurwitz_zeta(s: complex, w: float) -> complex:
    """Hurwitz zeta(s, w) = sum_{n>=0} (n+w)^{-s} for Re s > 0, 0 < w <= 1."""
    s = complex(s)
    if not 0.0 < w <= 1.0:
        raise DomainError(f"hurwitz_zeta needs 0 < w <= 1, got w={w}")
    if s == 1.0:
        raise PoleError("zeta(s, w) has its pole at s = 1")
    _check_strip(s)
    return complex(_hurwitz_em(np.array([s]), float(w))[0])


# ----------------------------------------------------------------------------
# Dirichlet L-functions
# ----------------------------------------------------------------------------

def dirichlet_l_many(s: np.ndarray, chi, tol: float = 1e-12) -> np.ndarray:
    """Vector L(s, chi) for non-principal chi, valid for Re s > 0, with each
    Hurwitz zeta to the absolute Euler-Maclaurin tolerance tol.

    Assembled from Hurwitz zeta at the residues a/q.  The Hurwitz pole terms
    cancel in the character sum because the character values sum to zero, so
    the deflated evaluation keeps the assembly finite at s = 1 as well.
    """
    if chi.principal:
        raise PrincipalCharacterError(
            "L assembly is restricted to non-principal characters"
        )
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s.real <= 0.0):
        raise DomainError("dirichlet_l requires Re s > 0")
    q = chi.modulus
    out = np.zeros_like(s)
    direct = np.zeros_like(s)
    for a in range(1, q + 1):
        cv = complex(chi(a))
        if cv == 0:
            continue
        frac = a / q
        hz = _hurwitz_em(s, frac, tol, deflate=True)
        frac_pow = np.exp(-s * math.log(frac))
        out += cv * (hz - frac_pow)
        direct += cv * np.exp(-s * math.log(a))
    return np.exp(-s * math.log(q)) * out + direct


def dirichlet_l(s: complex, chi) -> complex:
    """L(s, chi) for a non-principal character, Re s > 0 (entire there)."""
    return complex(dirichlet_l_many(np.array([complex(s)]), chi)[0])


# ----------------------------------------------------------------------------
# Gamma
# ----------------------------------------------------------------------------

# Rational (Lanczos) approximation, g = 607/128, relative error ~1e-15 on
# Re s >= 0.5; reflection handles the left half plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_C = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def _is_nonpositive_integer(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real)


def _gamma_right(s: complex) -> complex:
    # Re s >= 0.5 branch.
    acc = _LANCZOS_C0
    for i, c in enumerate(_LANCZOS_C, start=1):
        acc += c / (s - 1.0 + i)
    t = s + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (s - 0.5) * cmath.exp(-t) * acc


def gamma_complex(s: complex) -> complex:
    """Gamma(s) away from the poles at the non-positive integers."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"Gamma pole at s = {s}")
    if s.imag == 0.0 and s.real == int(s.real) and 1 <= s.real <= 170:
        return complex(math.factorial(int(s.real) - 1))
    if s.real >= 0.5:
        out = _gamma_right(s)
    else:
        # Reflection: Gamma(s) = pi / (sin(pi s) Gamma(1-s)).
        out = math.pi / (cmath.sin(math.pi * s) * _gamma_right(1.0 - s))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise AccuracyError(f"Gamma({s}) overflowed double precision")
    return out


def reciprocal_gamma(s: complex) -> complex:
    """1/Gamma(s); zero at the poles of Gamma (entire function)."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        return 0.0 + 0.0j
    return 1.0 / gamma_complex(s)


# ----------------------------------------------------------------------------
# Principal powers
# ----------------------------------------------------------------------------

def complex_pow_principal(base: complex, expo: complex) -> complex:
    """base**expo with the principal branch of log (arg in (-pi, pi])."""
    base = complex(base)
    expo = complex(expo)
    if expo == 0:
        return 1.0 + 0.0j
    if base == 0:
        if expo.imag == 0.0 and expo.real > 0 and expo.real == int(expo.real):
            return 0.0 + 0.0j
        raise DomainError("0 may only be raised to a positive integer power")
    out = cmath.exp(expo * cmath.log(base))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise AccuracyError(f"({base})**({expo}) overflowed double precision")
    return out


# ----------------------------------------------------------------------------
# Beta and regularized incomplete beta
# ----------------------------------------------------------------------------

@lru_cache
def beta_fn(u: float, v: float) -> float:
    """B(u, v) = Gamma(u) Gamma(v) / Gamma(u+v) for u, v > 0, memoized:
    reg_inc_beta asks for the same B(u, v) on every call."""
    if not (u > 0 and v > 0):
        raise DomainError("beta_fn needs positive arguments")
    return (gamma_complex(u) * gamma_complex(v) / gamma_complex(u + v)).real


def _beta_contfrac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta ratio (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 600):
        m2 = 2 * m
        # the even and then the odd partial numerator
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise AccuracyError(
        f"incomplete beta continued fraction failed to converge at "
        f"(t={x}, u={a}, v={b})"
    )


def reg_inc_beta(t: float, u: float, v: float) -> float:
    """Regularized incomplete beta I_t(u, v) = B(u,v)^{-1} int_0^t w^{u-1}(1-w)^{v-1} dw.

    Continued-fraction evaluation; the t <-> 1-t symmetry switch happens at
    t = u/(u+v) so the endpoint singularities (exponents < 1) never sit on the
    evaluated side.
    """
    if not (u > 0 and v > 0):
        raise DomainError("reg_inc_beta needs positive parameters")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"reg_inc_beta needs t in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    front = math.exp(
        u * math.log(t)
        + v * math.log1p(-t)
        - math.log(beta_fn(u, v))
    )
    if t <= u / (u + v):
        return front * _beta_contfrac(u, v, t) / u
    return 1.0 - front * _beta_contfrac(v, u, 1.0 - t) / v
