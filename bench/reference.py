"""Reference data for the benchmark, computed without importing sdlab.

Every figure the benchmark checks and that no closed form or property of the
method pins down comes from this script:

* zero ordinates of zeta(s) (mpmath.zetazero, cross-checked with
  mpmath.nzeros) and of L(s, chi_4) (sign changes of its Hardy function) up
  to the top edge of the T = 200 contour grid;
* the square-full Taylor data g_l of (2s-1) zeta(2s) zeta(3s) / zeta(6s) at
  s = 1/2 and the two-squares data of ((s-1) zeta(s) L(s, chi_4))^(1/2) G(s)
  at s = 1, from mpmath.taylor at 30 digits;
* window means of F_n(t) from divisor-pair counts, with every test d <= n^t
  decided exactly as d^q <= n^p for t = p/q, and summed as exact rationals;
* square-full counts from sum over squarefree b of isqrt(hi/b^3) -
  isqrt(lo/b^3), members from a deduplicated a^2 b^3 enumeration over all b,
  and sums of two squares from an a^2 + b^2 enumeration;
* the limit laws from scipy (betainc, and quad for the square-full law G
  without its symmetry);
* the coefficient algebra from Euler factors in pure-Python integers, stored
  as SHA-256 digests of the little-endian int64 arrays.

Regenerate with (about 5 minutes on 2 cores):

    python3 bench/reference.py

It writes bench/reference.json next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
import time
import warnings
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
import sympy
from scipy import integrate, special

HERE = os.path.dirname(os.path.abspath(__file__))
T_GRID = [Fraction(i, 20) for i in range(1, 20)]
CHI3 = (0, 1, -1)
CHI4 = (0, 1, 0, -1)


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------------
# Zeros on the critical line
# ----------------------------------------------------------------------------

def contour_top(T: float) -> float:
    lt = math.log(T)
    return 1.0 + (math.floor(T / lt) + 1) * lt


def zeta_zero_ordinates(top: float) -> list[float]:
    out = []
    n = 1
    while True:
        g = float(mpmath.zetazero(n).imag)
        if g > top:
            break
        out.append(g)
        n += 1
    if len(out) != int(mpmath.nzeros(top)):
        raise SystemExit("zetazero and nzeros disagree")
    return out


def l4_zero_ordinates(top: float, step: float = 0.05) -> list[float]:
    """Sign changes of Z(t) = exp(i theta(t)) L(1/2 + it, chi_4), refined by
    bisection; chi_4 is odd, so theta(t) = (t/2) log(4/pi) + Im log Gamma((3/2
    + it)/2)."""

    def hardy(t):
        t = mpmath.mpf(t)
        theta = t / 2 * mpmath.log(4 / mpmath.pi) + mpmath.im(
            mpmath.loggamma((mpmath.mpf(3) / 2 + 1j * t) / 2)
        )
        val = mpmath.exp(1j * theta) * mpmath.dirichlet(
            mpmath.mpc(0.5, t), list(CHI4)
        )
        if abs(mpmath.im(val)) > 1e-8 * (1 + abs(val)):
            raise SystemExit(f"Hardy function not real at t={t}")
        return mpmath.re(val)

    zeros = []
    n = int(math.ceil(top / step))
    prev_t, prev_v = 0.5, hardy(0.5)
    for i in range(1, n + 1):
        t = 0.5 + i * step
        v = hardy(t)
        if v == 0 or (prev_v < 0) != (v < 0):
            a, b, fa = prev_t, t, prev_v
            for _ in range(32):
                mid = 0.5 * (a + b)
                fm = hardy(mid)
                if (fa < 0) != (fm < 0):
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        prev_t, prev_v = t, v
        if t > top:
            break
    return [g for g in zeros if g <= top]


# ----------------------------------------------------------------------------
# Expansion coefficients
# ----------------------------------------------------------------------------

def _u_zeta(u):
    """(u - 1) zeta(u), with its limit 1 filled in at u = 1."""
    return mpmath.mpf(1) if u == 1 else (u - 1) * mpmath.zeta(u)


def squarefull_taylor(order: int) -> list[float]:
    def f(s):
        return _u_zeta(2 * s) * mpmath.zeta(3 * s) / mpmath.zeta(6 * s)

    return [float(c) for c in mpmath.taylor(f, mpmath.mpf(1) / 2, order)]


def _primes_upto(n: int) -> list[int]:
    return list(sympy.primerange(2, n + 1))


def two_squares_taylor(order: int, prime_limit: int) -> list[float]:
    p3 = [p for p in _primes_upto(prime_limit) if p % 4 == 3]

    def f(s):
        acc = -mpmath.log(1 - mpmath.power(2, -s)) / 2
        for p in p3:
            acc -= mpmath.log(1 - mpmath.power(p, -2 * s)) / 2
        lval = mpmath.dirichlet(s, list(CHI4))
        return mpmath.sqrt(_u_zeta(s) * lval) * mpmath.exp(acc)

    return [float(c) for c in mpmath.taylor(f, mpmath.mpf(1), order)]


# ----------------------------------------------------------------------------
# Window means with exact tie tests
# ----------------------------------------------------------------------------

def iroot(v: int, k: int) -> int:
    """floor(v ** (1/k)) for v >= 0, by integer Newton steps from above."""
    if v < 2 or k == 1:
        return v
    r = 1 << -(-v.bit_length() // k)
    while True:
        s = ((k - 1) * r + v // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def small_from(d: int, t: Fraction) -> int:
    """Least n with d <= n^t, i.e. n^p >= d^q."""
    p, q = t.numerator, t.denominator
    v = d**q
    r = iroot(v, p)
    return r if r**p == v else r + 1


def large_upto(d: int, t: Fraction) -> int:
    """Largest n with n/d <= n^t, i.e. n^(q-p) <= d^q."""
    p, q = t.numerator, t.denominator
    return iroot(d**q, q - p)


def exact_mean(tau: np.ndarray, cnt: np.ndarray) -> Fraction:
    """sum cnt(n) / tau(n) as an exact rational (grouped by tau)."""
    total = Fraction(0)
    for tv in np.unique(tau):
        s = int(cnt[tau == tv].sum(dtype=np.int64))
        total += Fraction(s, int(tv))
    return total


def window_means(lo: int, hi: int, mask: np.ndarray | None):
    """(count, [mean of F_n(t) over selected n in (lo, hi]] for t in T_GRID)."""
    m = hi - lo
    D = isqrt(hi)
    tau = np.zeros(m, dtype=np.int32)
    for d in range(1, D + 1):
        k_lo = max(d + 1, lo // d + 1)
        k_hi = hi // d
        if k_lo <= k_hi:
            tau[d * k_lo - lo - 1 : d * k_hi - lo : d] += 2
        if lo < d * d <= hi:
            tau[d * d - lo - 1] += 1
    sel = np.ones(m, dtype=bool) if mask is None else mask
    tau_sel = tau[sel]
    count = int(sel.sum())
    means = []
    for t in T_GRID:
        cnt = np.zeros(m, dtype=np.int16)
        for d in range(1, D + 1):
            k_lo = max(d + 1, lo // d + 1)
            k_hi = hi // d
            if k_lo <= k_hi:
                ka = max(k_lo, -(-small_from(d, t) // d))
                if ka <= k_hi:
                    cnt[d * ka - lo - 1 : d * k_hi - lo : d] += 1
                kb = min(k_hi, large_upto(d, t) // d)
                if kb >= k_lo:
                    cnt[d * k_lo - lo - 1 : d * kb - lo : d] += 1
            if lo < d * d <= hi and (d == 1 or 2 * t >= 1):
                cnt[d * d - lo - 1] += 1
        means.append(float(exact_mean(tau_sel, cnt[sel]) / count))
        log(f"  window ({lo}, {hi}] t={t}: {means[-1]!r}")
    return count, means


def two_squares_mask(lo: int, hi: int) -> np.ndarray:
    """n in (lo, hi] that are a^2 + b^2, by enumerating 0 <= a <= b."""
    mask = np.zeros(hi - lo, dtype=bool)
    for a in range(isqrt(hi // 2) + 1):
        a2 = a * a
        b_lo = max(a, isqrt(max(lo - a2, 0)))
        while a2 + b_lo * b_lo <= lo:
            b_lo += 1
        b_hi = isqrt(hi - a2)
        if b_lo <= b_hi:
            b = np.arange(b_lo, b_hi + 1, dtype=np.int64)
            mask[a2 + b * b - lo - 1] = True
    return mask


def squarefree(b: int) -> bool:
    return all(e == 1 for e in sympy.factorint(b).values())


def squarefull_count(lo: int, hi: int) -> int:
    total = 0
    b = 1
    while b**3 <= hi:
        if squarefree(b):
            total += isqrt(hi // b**3) - isqrt(lo // b**3)
        b += 1
    return total


def squarefull_members(lo: int, hi: int) -> list[int]:
    found = set()
    b = 1
    while b**3 <= hi:
        b3 = b**3
        a = isqrt(lo // b3)
        while a * a * b3 <= hi:
            n = a * a * b3
            if n > lo:
                found.add(n)
            a += 1
        b += 1
    return sorted(found)


def divisor_le(d: int, n: int, t: Fraction, log_n: float) -> bool:
    """d <= n^t, decided exactly near the edge."""
    gap = math.log(d) - float(t) * log_n
    if gap < -1e-9:
        return True
    if gap > 1e-9:
        return False
    return d**t.denominator <= n**t.numerator


def squarefull_window_means(lo: int, hi: int):
    members = squarefull_members(lo, hi)
    sums = [Fraction(0)] * len(T_GRID)
    for n in members:
        fac = sympy.factorint(n)
        if any(e < 2 for e in fac.values()):
            raise SystemExit(f"{n} is not square-full")
        divs = sympy.divisors(n)
        ln = math.log(n)
        for i, t in enumerate(T_GRID):
            c = sum(1 for d in divs if divisor_le(d, n, t, ln))
            sums[i] += Fraction(c, len(divs))
    return len(members), [float(s / len(members)) for s in sums]


# ----------------------------------------------------------------------------
# Limit laws
# ----------------------------------------------------------------------------

def squarefull_law(t: float) -> float:
    """G(t) = P(V/2 + W <= t), (U, V, W) ~ Dirichlet(1/3, 1/3, 1/3), by direct
    quadrature over W ~ Beta(1/3, 2/3), without the symmetry G(t) + G(1-t) = 1.

    The substitution w = u^3 absorbs the w^{-2/3} endpoint singularity; for
    t > 1/2 the integral is split where 2(t-w)/(1-w) reaches 1."""
    third = 1.0 / 3.0
    norm = special.beta(third, 2 * third)

    def integrand(u):
        w = u**3
        arg = min(1.0, 2.0 * (t - w) / (1.0 - w))
        return 3.0 * (1.0 - w) ** -third * special.betainc(third, third, arg) / norm

    top = t**third
    edges = [0.0, top]
    if t > 0.5:
        edges.insert(1, (2.0 * t - 1.0) ** third)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            total += integrate.quad(integrand, a, b, epsabs=1e-16, epsrel=1e-14, limit=500)[0]
    return total


def law(indicator: str, t: float) -> float:
    if indicator == "all":
        return 2.0 / math.pi * math.asin(math.sqrt(t))
    if indicator == "two_squares":
        return float(special.betainc(0.25, 0.25, t))
    return squarefull_law(t)


def window_entry(indicator, x, theta, lo, hi, count, means):
    ts = [float(t) for t in T_GRID]
    pred = [law(indicator, t) for t in ts]
    return {
        "x": x,
        "theta": theta,
        "lo": lo,
        "hi": hi,
        "count": count,
        "t": ts,
        "empirical": means,
        "predicted": pred,
        "sup_error": max(abs(e - p) for e, p in zip(means, pred)),
    }


def window_hi(x: int, theta: float, kappa1: float) -> int:
    return int(math.floor(x + x ** (1.0 - 1.0 / kappa1) * float(x) ** theta))


# ----------------------------------------------------------------------------
# Coefficient algebra from Euler factors
# ----------------------------------------------------------------------------

def spf_table(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def poly_mul(a, b, deg):
    out = [0] * (deg + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: deg + 1 - i]):
                out[i + j] += x * y
    return out


def euler_tables(limit: int, chi_pairs):
    """Coefficients of prod_i zeta(k_i s) L(k_i s, chi_i) and of its inverse,
    multiplicatively from the local factors in x = p^{-s}."""
    spf = spf_table(limit)
    deg = limit.bit_length()
    cache = {}

    def local(p):
        if p not in cache:
            inv = [1] + [0] * deg
            for k, chi in chi_pairs:
                for w in (1, chi[p % len(chi)]):
                    f = [0] * (deg + 1)
                    f[0] = 1
                    if k <= deg:
                        f[k] = -w
                    inv = poly_mul(inv, f, deg)
            # series inverse of the polynomial inv (inv[0] = 1)
            fwd = [1] + [0] * deg
            for e in range(1, deg + 1):
                fwd[e] = -sum(inv[j] * fwd[e - j] for j in range(1, e + 1))
            cache[p] = (fwd, inv)
        return cache[p]

    fwd = [0] * (limit + 1)
    inv = [0] * (limit + 1)
    fwd[1] = inv[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        lf, li = local(p)
        fwd[n] = fwd[m] * lf[e]
        inv[n] = inv[m] * li[e]
    return fwd, inv


def truncated_phi(x: int, fwd, inv):
    limit = len(fwd) - 1
    phi = [0] * (limit + 1)
    for d in range(1, x + 1):
        c = inv[d]
        if c:
            for j in range(1, limit // d + 1):
                phi[d * j] += c * fwd[j]
    return phi


def digest(values) -> str:
    """SHA-256 of values[1:] as little-endian int64 (fails if one overflows)."""
    h = hashlib.sha256()
    for i in range(1, len(values), 1 << 16):
        chunk = values[i : i + (1 << 16)]
        h.update(struct.pack(f"<{len(chunk)}q", *chunk))
    return h.hexdigest()


# ----------------------------------------------------------------------------

def main() -> None:
    out = {
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "sympy": sympy.__version__,
        }
    }

    log("algebra")
    limit, x_phi = 10**6, 10**3
    pairs = ((2, CHI3), (3, CHI4))
    fwd, inv = euler_tables(limit, pairs)
    phi = truncated_phi(x_phi, fwd, inv)
    out["algebra"] = {
        "limit": limit,
        "kappa": [2, 3],
        "chi_moduli": [3, 4],
        "phi_x": x_phi,
        "tau_sha256": digest(fwd),
        "inverse_sha256": digest(inv),
        "phi_sha256": digest(phi),
        "tau_prefix": fwd[1:41],
        "inverse_prefix": inv[1:41],
        "inverse_max_abs": max(abs(v) for v in inv),
    }

    log("zeros")
    mpmath.mp.dps = 20
    top = contour_top(200.0)
    zz = zeta_zero_ordinates(top)
    lz = l4_zero_ordinates(top)
    out["zeros"] = {"T": 200.0, "top": top, "zeta": zz, "l_chi4": lz}
    log(f"  {len(zz)} zeta zeros, {len(lz)} L(s, chi_4) zeros below {top}")

    log("expansions")
    mpmath.mp.dps = 30
    sf = squarefull_taylor(16)
    ts = two_squares_taylor(8, 10**5)
    with mpmath.workdps(30):
        sf_l0 = float(mpmath.zeta(1.5) / (2 * mpmath.zeta(3)))
    out["expansion"] = {
        "squarefull_g": sf,
        "squarefull_lambda0": sf_l0,
        "two_squares_g": ts,
        "two_squares_lambda0": ts[0] / math.sqrt(math.pi),
        "two_squares_prime_limit": 10**5,
    }

    log("square-full window")
    x, theta = 10**10, 0.42
    lo, hi = x, window_hi(x, theta, 2.0)
    count, means = squarefull_window_means(lo, hi)
    if count != squarefull_count(lo, hi):
        raise SystemExit("square-full enumeration and count formula disagree")
    out["window_squarefull"] = window_entry("squarefull", x, theta, lo, hi, count, means)

    log("two-squares window and count")
    out["count_two_squares"] = {"lo": 0, "hi": 2 * 10**7,
                                "count": int(two_squares_mask(0, 2 * 10**7).sum())}
    x, theta = 10**8, 0.85
    lo, hi = x, window_hi(x, theta, 1.0)
    mask = two_squares_mask(lo, hi)
    count, means = window_means(lo, hi, mask)
    out["window_two_squares"] = window_entry("two_squares", x, theta, lo, hi, count, means)

    log("ddt window")
    x = 10**7
    count, means = window_means(0, x, None)
    out["window_ddt"] = window_entry("all", x, 1.0, 0, x, count, means)

    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {path}")


if __name__ == "__main__":
    main()
