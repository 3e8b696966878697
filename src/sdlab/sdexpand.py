"""Singular-factor expansion machinery for Dirichlet series of the shape
prod zeta(k_i s)^{z_i} * prod L(k_i s, chi_i)^{w_i} * G(s): Taylor data around
s = 1/kappa_1, the derived main-term coefficients, and the short-interval
main-term evaluator. The Stieltjes constants behind the Taylor data are a
table of doubles, so nothing here needs mpmath at run time.

The regular factor's Taylor data are products of truncated power series:
the non-leading zeta and the L factors, and a zeta-composition G, from
specfun's Euler-Maclaurin jets (hurwitz_jet, dirichlet_l_jet), with
coefficient j of a factor at kappa_i s scaled by kappa_i^j; an Euler-product
G from its closed-form series in prime sums (EulerProductG.taylor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .arith import CharacterTable, KappaVector, primes_upto, quadratic_character
from .errors import DomainError
from .powerseries import PowerSeries, ps_exp, ps_log, ps_pow

__all__ = [
    "stieltjes_constants",
    "gamma_coeffs",
    "ZetaCompositionG",
    "EulerProductG",
    "SeriesSpec",
    "ExpansionCoeffs",
    "MainTermResult",
    "expansion_coeffs",
    "lambda0_closed_form",
    "main_term",
    "squarefull_series_spec",
    "two_squares_series_spec",
]


# ----------------------------------------------------------------------------
# Stieltjes constants
# ----------------------------------------------------------------------------

# gamma_0..gamma_29: entry k is repr(float(mpmath.stieltjes(k))) under
# mpmath.workprec(53), which is also the correctly rounded 40-digit value;
# TestStieltjes::test_table_bits re-derives every entry
_STIELTJES = (
    0.5772156649015329,
    -0.07281584548367673,
    -0.00969036319287232,
    0.002053834420303346,
    0.0023253700654673,
    0.0007933238173010627,
    -0.0002387693454301996,
    -0.000527289567057751,
    -0.0003521233538030395,
    -3.439477441808805e-05,
    0.0002053328149090648,
    0.0002701844395439035,
    0.0001672729121051402,
    -2.7463806603760158e-05,
    -0.00020920926205929996,
    -0.0002834686553202414,
    -0.00019969685830896976,
    2.6277037109918338e-05,
    0.0003073684081492528,
    0.0005036054530473557,
    0.00046634356151155945,
    0.00010443776975600011,
    -0.0005415995822039977,
    -0.0012439620904082457,
    -0.0015885112789035616,
    -0.0010745919527384888,
    0.0006568035186371545,
    0.0034778369136185382,
    0.00640006853170063,
    0.007371151770472239,
)


def stieltjes_constants(count: int) -> tuple[float, ...]:
    """gamma_0..gamma_{count-1}, the Stieltjes constants rounded to double,
    from a table of the first 30."""
    if not 0 <= count <= len(_STIELTJES):
        raise DomainError(f"Stieltjes count must lie in [0, {len(_STIELTJES)}], got {count}")
    return _STIELTJES[:count]


def gamma_coeffs(z: complex, kappa: float, order: int) -> tuple[complex, ...]:
    """Taylor coefficients (index j) of {(kappa s - 1) zeta(kappa s)}^z about
    s = 1/kappa; entry j is gamma_j(z, kappa)/j!."""
    if not 0 <= order <= 24:
        raise DomainError(f"gamma_coeffs order must lie in [0, 24], got {order}")
    gam = stieltjes_constants(max(order, 1))
    base = [0j] * (order + 1)
    base[0] = 1.0 + 0j
    # (u-1) zeta(u) = 1 + sum_k (-1)^k gamma_k (u-1)^{k+1} / k!, with u = kappa s
    for k in range(order):
        base[k + 1] = (-1) ** k * gam[k] * kappa ** (k + 1) / math.factorial(k)
    series = PowerSeries(1.0 / kappa, tuple(base))
    return ps_pow(series, z).coeffs


# ----------------------------------------------------------------------------
# Regular factors
# ----------------------------------------------------------------------------

def _jet_power(coeffs, s0: float, m: float, e: complex) -> PowerSeries:
    """f(m s)^e about s0, from the Taylor coefficients of f about m s0."""
    return ps_pow(PowerSeries(s0, tuple(c * m**j for j, c in enumerate(coeffs))), e)


class ZetaCompositionG:
    """G(s) = prod_j zeta(m_j s)^{e_j} (closed-form zeta composition)."""

    def __init__(self, factors):
        self.factors = tuple((float(m), float(e)) for m, e in factors)

    def taylor(self, s0: float, order: int) -> PowerSeries:
        """Taylor series of G about the real point s0 > 0, through h^order,
        from the jets of zeta(m_j s)."""
        out = PowerSeries(s0, (1.0,) + (0.0,) * order)
        for m, e in self.factors:
            out = out * _jet_power(specfun.hurwitz_jet(m * s0, 1.0, order), s0, m, e)
        return out

    def describe(self) -> dict:
        return {"kind": "zeta_composition", "factors": [list(f) for f in self.factors]}


# a prime leaves the k sum of EulerProductG.taylor once its terms fall below
# this, far under the last bit of the two-squares log-series coefficients
# (0.42 at order 0, growing with the order)
_TERM_FLOOR = 1e-20


class EulerProductG:
    """G(s) = prod extra (1-p0^{-a0 s})^{e0} * prod_{p<=P, p mod q in residues}
    (1-p^{-a s})^{e}, truncated at P with a recorded tail estimate.

    `taylor` gives its Taylor series about a real point in closed form, from
    prime sums; its order-0 coefficient is the value there."""

    prime_limit = 10**5

    def __init__(self, a: float, e: float, modulus: int, residues, extra=()):
        self.a = float(a)
        self.e = float(e)
        self.modulus = int(modulus)
        self.residues = tuple(int(r) for r in residues)
        self.extra = tuple((int(p), float(aa), float(ee)) for p, aa, ee in extra)
        self._log_primes = None

    def _primes(self) -> np.ndarray:
        if self._log_primes is None:
            primes = primes_upto(self.prime_limit)
            keep = np.isin(primes % self.modulus, self.residues)
            # math.log, not np.log: the same bits on every SIMD target
            self._log_primes = np.array([math.log(p) for p in primes[keep].tolist()])
        return self._log_primes

    def taylor(self, s0: float, order: int) -> PowerSeries:
        """Taylor series of G about the real point s0, through h^order.

        With h = s - s0, c = p^{-a s0} and beta = a log p, each factor has
        log(1 - c e^{-beta h}) = -sum_k (c^k / k) e^{-k beta h}, whose h^j
        coefficient is -(-1)^j sum_k c^k k^{j-1} beta^j / j!.  The k sum runs
        over all primes at once, in real float64 multiplies and sums; a prime
        leaves it once its terms decrease in k and the largest is below
        _TERM_FLOOR.  The extra factors, where c can be as large as 1/2, go
        through ps_log.  Raises DomainError where some c >= 1.
        """
        s0 = float(s0)
        if order < 0:
            raise DomainError(f"Taylor order must be >= 0, got {order}")
        js = range(order + 1)
        log_g = [0.0] * (order + 1)
        for p0, a0, e0 in self.extra:
            beta0 = a0 * math.log(p0)
            c0 = math.exp(-s0 * beta0)
            if not c0 < 1.0:
                raise DomainError(f"extra factor at p = {p0} needs p^(-a s0) < 1, got {c0}")
            factor = [1.0 - c0] + [-c0 * (-beta0) ** j / math.factorial(j) for j in js[1:]]
            for j, v in enumerate(ps_log(PowerSeries(s0, tuple(factor))).coeffs):
                log_g[j] += e0 * v.real
        beta = self.a * self._primes()
        c = np.array([math.exp(-s0 * b) for b in beta.tolist()])
        if c.size and not c.max() < 1.0:
            raise DomainError(f"Euler product needs p^(-a s0) < 1, got {c.max()}")
        # rows j = 0..order of beta^j / j!
        rows = np.cumprod(
            np.vstack([np.ones_like(beta)] + [beta / j for j in js[1:]]), axis=0
        )
        sums = np.zeros(order + 1)
        ck = c.copy()
        k = 1
        while ck.size:
            # terms[j, p] = c^k k^{j-1} beta^j / j!
            kpow = np.array([float(k) ** (j - 1) for j in js])
            terms = kpow[:, None] * rows * ck
            sums += terms.sum(axis=1)
            # a prime stays until its terms decrease in k and lie below the floor
            keep = (k * s0 * beta < order) | (terms.max(axis=0) >= _TERM_FLOOR)
            rows, c, beta, ck = rows[:, keep], c[keep], beta[keep], ck[keep] * c[keep]
            k += 1
        for j in js:
            log_g[j] -= self.e * (-1) ** j * float(sums[j])
        return ps_exp(PowerSeries(complex(s0), tuple(log_g)))

    def describe(self) -> dict:
        return {
            "kind": "euler_product",
            "a": self.a,
            "e": self.e,
            "modulus": self.modulus,
            "residues": list(self.residues),
            "prime_limit": self.prime_limit,
            "extra": [list(x) for x in self.extra],
        }


# ----------------------------------------------------------------------------
# Series specification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesSpec:
    """Descriptor of prod zeta(k_i s)^{z_i} prod L(k_i s, chi_i)^{w_i} G(s),
    with the exponent alpha and the name that its artifacts record."""

    kappa: KappaVector
    z: tuple[complex, ...]
    w: tuple[complex, ...]
    chis: tuple[CharacterTable | None, ...]
    G: object = None  # None is the constant 1
    alpha: float = 1.0
    name: str = "series"

    def __post_init__(self):
        r = self.kappa.r
        if not (len(self.z) == len(self.w) == len(self.chis) == r):
            raise DomainError("z, w, chis must all have one entry per kappa")
        for wi, chi in zip(self.w, self.chis):
            if wi != 0:
                if chi is None:
                    raise DomainError("nonzero w_i requires a character")
                if chi.principal:
                    raise DomainError("characters must be non-principal")
        if self.alpha <= 0:
            raise DomainError("need alpha > 0")

    @property
    def r(self) -> int:
        return self.kappa.r

    @property
    def kappa1(self) -> float:
        return self.kappa.kappa[0]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kappa": list(self.kappa.kappa),
            "z": [[zi.real, zi.imag] for zi in map(complex, self.z)],
            "w": [[wi.real, wi.imag] for wi in map(complex, self.w)],
            "chi_moduli": [c.modulus if c is not None else None for c in self.chis],
            "G": {"kind": "constant", "value": 1.0} if self.G is None else self.G.describe(),
            "alpha": self.alpha,
            # the source's growth constants, at the only values the lab uses
            "delta": 0.0,
            "A": 0.0,
            "M": 1.0,
        }


@dataclass(frozen=True)
class ExpansionCoeffs:
    """gamma_j/j!, g_l, and lambda_l arrays for a series spec."""

    order: int
    gamma_j: tuple[complex, ...]
    g_ell: tuple[complex, ...]
    lambda_ell: tuple[complex, ...]

    def records(self) -> list[dict]:
        return [
            {
                "ell": l,
                "g_re": g.real,
                "g_im": g.imag,
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
            }
            for l, (g, lam) in enumerate(zip(self.g_ell, self.lambda_ell))
        ]


def expansion_coeffs(spec: SeriesSpec, order: int = 16) -> ExpansionCoeffs:
    """Taylor data at s = 1/kappa_1: leading-factor coefficients times the
    jets of the regular factor, and the main-term lambda sequence."""
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    k, k1, s0 = spec.kappa.kappa, spec.kappa1, 1.0 / spec.kappa1
    z1 = complex(spec.z[0])
    gam = gamma_coeffs(z1, k1, order)
    series = PowerSeries(s0, gam)
    for i in range(spec.r):
        if i and spec.z[i] != 0:
            series = series * _jet_power(specfun.hurwitz_jet(k[i] / k1, 1.0, order), s0, k[i], spec.z[i])
        if spec.w[i] != 0:
            jet = specfun.dirichlet_l_jet(k[i] / k1, spec.chis[i], order)
            series = series * _jet_power(jet, s0, k[i], spec.w[i])
    g = (series if spec.G is None else series * spec.G.taylor(s0, order)).coeffs
    k1_pow = specfun.complex_pow_principal(k1, -z1)
    lam = [k1_pow * g[l] * specfun.reciprocal_gamma(z1 - l) for l in range(order + 1)]
    return ExpansionCoeffs(
        order=order,
        gamma_j=tuple(gam),
        g_ell=g,
        lambda_ell=tuple(lam),
    )


def lambda0_closed_form(spec: SeriesSpec) -> complex:
    """Leading coefficient k1^{-z1} G(1/k1) prod zeta(k_i/k1)^{z_i}
    prod L(k_i/k1, chi_i)^{w_i} / Gamma(z1): the order-0 expansion, so the
    same jets as expansion_coeffs give it.  The expand artifact repeats it
    beside records[0]'s lambda_0 only because the benchmark reads it there."""
    return expansion_coeffs(spec, 0).lambda_ell[0]


@dataclass(frozen=True)
class MainTermResult:
    value: complex
    y_prime: float
    envelope: float


def main_term(
    spec: SeriesSpec,
    x: float,
    y: float,
    n_terms: int = 0,
) -> MainTermResult:
    """Predicted window sum y' (log x)^{z1-1} sum_{l<=N} lambda_l (log x)^{-l},
    with the lambda_l of expansion_coeffs(spec, order=max(N, 4)).

    The envelope is the remainder shape ((N+1)/log x)^{N+1}
    + (N+1)^{N+1} exp(-(log x / log log x)^{1/3}) + y/(x^{1/k1} log x);
    its free constants are fixed at 1, so it is a reference shape rather
    than a bound.
    """
    # written so that NaN fails each test
    if not (math.isfinite(x) and x >= 3):
        raise DomainError(f"x must be finite and at least 3, got {x}")
    k1 = spec.kappa1
    if not 0 <= y <= x ** (1.0 / k1) * (1.0 + 1e-12):
        raise DomainError(f"need 0 <= y <= x^(1/kappa_1), got y = {y}")
    if n_terms < 0:
        raise DomainError("n_terms must be >= 0")
    L = math.log(x)
    y_prime = k1 * ((x + x ** (1.0 - 1.0 / k1) * y) ** (1.0 / k1) - x ** (1.0 / k1))
    coeffs = expansion_coeffs(spec, order=max(n_terms, 4))
    z1 = complex(spec.z[0])
    series = sum(coeffs.lambda_ell[l] / L**l for l in range(n_terms + 1))
    value = y_prime * specfun.complex_pow_principal(L, z1 - 1.0) * series
    n1 = n_terms + 1.0
    envelope = (
        (n1 / L) ** n1
        + n1**n1 * math.exp(-((L / math.log(L)) ** (1.0 / 3.0)))
        + y / (x ** (1.0 / k1) * L)
    )
    if y == 0:
        value = 0j
    return MainTermResult(value=value, y_prime=y_prime, envelope=envelope)


# ----------------------------------------------------------------------------
# The two application instances
# ----------------------------------------------------------------------------

def squarefull_series_spec() -> SeriesSpec:
    """Indicator of square-full integers: zeta(2s) zeta(3s) / zeta(6s)."""
    return SeriesSpec(
        kappa=KappaVector((2.0, 3.0)),
        z=(1.0 + 0j, 1.0 + 0j),
        w=(0j, 0j),
        chis=(None, None),
        G=ZetaCompositionG(((6.0, -1.0),)),
        alpha=1.0,
        name="squarefull",
    )


def two_squares_series_spec(wrong_congruence: bool = False) -> SeriesSpec:
    """Indicator of sums of two squares: (zeta(s) L(s, chi4))^(1/2) G(s) with
    G(s) = (1-2^{-s})^{-1/2} prod_{p=3 (4)} (1-p^{-2s})^{-1/2}.

    wrong_congruence=True swaps the product to p = 1 (mod 4), the congruence
    class printed in the source formula, for the consistency cross-check.
    """
    residue = 1 if wrong_congruence else 3
    return SeriesSpec(
        kappa=KappaVector((1.0,)),
        z=(0.5 + 0j,),
        w=(0.5 + 0j,),
        chis=(quadratic_character(4),),
        G=EulerProductG(
            a=2.0,
            e=-0.5,
            modulus=4,
            residues=(residue,),
            extra=((2, 1.0, -0.5),),
        ),
        alpha=0.5,
        name="two_squares" + ("_wrong_congruence" if wrong_congruence else ""),
    )
