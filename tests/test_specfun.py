import cmath
import math
import threading

import mpmath
import numpy as np
import pytest
from scipy import integrate

from sdlab import specfun as sf
from sdlab.errors import (
    AccuracyError,
    DomainError,
    PoleError,
    PrincipalCharacterError,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def gamma_product_limit(s: complex, n: int = 10**6) -> complex:
    """Gamma via the product-limit definition n! n^s / (s (s+1) ... (s+n)),
    with one Richardson step in 1/n."""

    def partial(m: int) -> complex:
        # log of m! * m^s / prod_{k=0..m} (s+k), summed in float64
        ks = np.arange(1, m + 1, dtype=np.float64)
        log_num = np.sum(np.log(ks)) + s * math.log(m)
        log_den = np.sum(np.log(s + np.concatenate([[0.0], ks])))
        return cmath.exp(log_num - log_den)

    p1, p2 = partial(n // 2), partial(n)
    return 2.0 * p2 - p1


def zeta_direct(sigma: float, terms: int = 10**7) -> float:
    """Direct summation with an Euler-Maclaurin integral tail."""
    ns = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(ns**-sigma))
    n = float(terms)
    tail = n ** (1 - sigma) / (sigma - 1) - 0.5 * n**-sigma + sigma / 12 * n ** (-sigma - 1)
    return head + tail


def hurwitz_direct(sigma: float, w: float, terms: int = 10**7) -> float:
    ns = np.arange(terms, dtype=np.float64) + w
    head = float(np.sum(ns**-sigma))
    n = float(terms) + w
    tail = n ** (1 - sigma) / (sigma - 1) + 0.5 * n**-sigma + sigma / 12 * n ** (-sigma - 1)
    return head - n**-sigma + tail


def alternating_accelerated(terms: np.ndarray, rounds: int = 40) -> float:
    """Euler-style acceleration: iterated averaging of partial sums."""
    s = np.cumsum(terms)
    tail = s[-(rounds + 1) :]
    for _ in range(rounds):
        tail = 0.5 * (tail[:-1] + tail[1:])
    return float(tail[-1].real)


def l_series_direct(s: complex, chi, blocks: int = 2 * 10**4) -> complex:
    """Character series summed directly over `blocks` full periods, plus the
    analytic tail of the smooth block sequence b(k) = sum_a chi(a) (qk+a)^{-s}
    (integral + midpoint + first derivative correction)."""
    q = chi.modulus
    n = np.arange(1, q * blocks + 1, dtype=np.float64)
    coeff = np.tile([complex(chi(a)) for a in range(1, q + 1)], blocks)
    head = complex(np.sum(coeff * np.exp(-s * np.log(n))))
    chis = np.array([complex(chi(a)) for a in range(1, q + 1)])
    base = q * blocks + np.arange(1, q + 1, dtype=np.float64)
    if s == 1.0:
        integral = -complex(np.sum(chis * np.log(base))) / q
    else:
        integral = complex(np.sum(chis * base ** complex(1.0 - s))) / (q * (s - 1.0))
    b_k = complex(np.sum(chis * base ** complex(-s)))
    db_k = -s * q * complex(np.sum(chis * base ** complex(-s - 1.0)))
    return head + integral + b_k / 2.0 - db_k / 12.0


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

class TestGamma:
    def test_factorial(self):
        assert sf.gamma_complex(5) == 24

    def test_half(self):
        assert sf.gamma_complex(0.5).real == pytest.approx(math.sqrt(math.pi), abs=1e-14)

    def test_one_plus_i_product_limit(self):
        want = gamma_product_limit(1 + 1j)
        got = sf.gamma_complex(1 + 1j)
        assert abs(got - want) < 5e-7  # oracle accuracy, not implementation
        assert got.real == pytest.approx(0.49801566811836, abs=1e-12)
        assert got.imag == pytest.approx(-0.15494982830181, abs=1e-12)

    def test_poles(self):
        for s in (0, -1, -7):
            with pytest.raises(PoleError):
                sf.gamma_complex(s)

    def test_reflection_and_duplication(self, rng):
        count = 0
        while count < 200:
            s = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
            if abs(s.imag) < 0.05:  # stay away from the pole line
                continue
            count += 1
            refl = sf.gamma_complex(s) * sf.gamma_complex(1 - s)
            assert abs(refl - math.pi / cmath.sin(math.pi * s)) <= 1e-10 * max(
                1.0, abs(refl)
            )
            dup = sf.gamma_complex(s) * sf.gamma_complex(s + 0.5)
            rhs = 2.0 ** (1 - 2 * s) * math.sqrt(math.pi) * sf.gamma_complex(2 * s)
            assert abs(dup - rhs) <= 1e-10 * max(1.0, abs(dup))

    def test_vertical_line_magnitude_matches_leading_term(self):
        # |Gamma(sigma+i tau)| ~ sqrt(2 pi) e^{-pi |tau|/2} |tau|^{sigma-1/2}
        for sigma in (0.0, 0.5, 1.0, 2.0):
            for tau in (10.0, 25.0, 60.0, 100.0):
                s = complex(sigma, tau)
                lead = (
                    math.sqrt(2 * math.pi)
                    * math.exp(-math.pi * tau / 2)
                    * tau ** (sigma - 0.5)
                )
                rel = abs(abs(sf.gamma_complex(s)) - lead) / lead
                assert rel <= 10.0 / tau

    def test_reciprocal_gamma_zero_at_poles(self):
        assert sf.reciprocal_gamma(0) == 0
        assert sf.reciprocal_gamma(-3) == 0
        assert sf.reciprocal_gamma(2) == 1.0


# ---------------------------------------------------------------------------
# zeta / Hurwitz
# ---------------------------------------------------------------------------

class TestZeta:
    def test_basel(self):
        assert abs(sf.zeta_complex(2.0) - math.pi**2 / 6) < 1e-12

    def test_three_halves_vs_direct_sum(self):
        want = zeta_direct(1.5)
        assert abs(sf.zeta_complex(1.5) - want) < 1e-10
        assert sf.zeta_complex(1.5).real == pytest.approx(2.612375348685488, abs=1e-12)

    def test_first_zero_located_by_bisection(self):
        # |zeta| has a minimum crossing ~0 near tau = 14.1347; bisect on the
        # sign change of d|zeta|/dtau surrogate: scan a bracket and refine.
        def mod(t):
            return abs(sf.zeta_complex(complex(0.5, t)))

        lo, hi = 14.0, 14.3
        for _ in range(60):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if mod(m1) < mod(m2):
                hi = m2
            else:
                lo = m1
        t = 0.5 * (lo + hi)
        assert abs(t - 14.134725) < 1e-4
        assert mod(t) < 1e-4

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            sf.zeta_complex(1.0)
        with pytest.raises(DomainError):
            sf.zeta_complex(complex(-0.5, 3.0))

    def test_accuracy_error_when_params_too_small(self, monkeypatch):
        monkeypatch.setattr(sf, "_EM_BASE_TERMS", 4)
        monkeypatch.setattr(sf, "_BERNOULLI_ORDER", 4)
        with pytest.raises(AccuracyError, match="M=8"):
            # 8 head terms + 2 correction terms cannot reach 1e-12 here
            sf._hurwitz_em(np.array([complex(0.3, 0.0)]), 1.0)

    def test_nan_tail_raises(self, chi4):
        # past |s| ~ 4.3e10 the Pochhammer factor overflows while the power
        # underflows, so the corrections and the tail estimate are nan, which
        # must not pass
        s = np.array([2.0 + 0j, 1e12 + 0j])
        with pytest.raises(AccuracyError, match="tail estimate nan"):
            sf.zeta_many(s)
        with pytest.raises(AccuracyError, match="tail estimate nan"):
            sf.zeta_complex(1e12)
        # the head term (1/4)^{-s} of L's Hurwitz sums overflows first
        with pytest.raises(AccuracyError, match="head sum overflows"):
            sf.dirichlet_l_many(s, chi4, 1e-9)
        # at 1e10 only the rising factors past the last term overflow; the
        # tail extends that term's finite product, so the exact value passes
        assert sf.zeta_complex(1e10) == 1 + 0j

    def test_l_head_overflow_raises(self, chi4, monkeypatch):
        # (1/4)^{-s} overflows from Re s ~ 512, where L(s, chi4) is 1 to
        # double precision: an error, with no RuntimeWarning (the suite
        # makes warnings errors), and never inf or nan
        for s in (600.0, 1000.0, 600.0 + 50j, 1000.0 + 3000j):
            with pytest.raises(AccuracyError, match="head sum overflows"):
                sf.dirichlet_l_many(np.array([s, 400.0]), chi4)
        # also from a block in a pool thread, where errstate is the thread's
        monkeypatch.setattr(sf, "_cpu_count", lambda: 2)
        s = np.full(6000, 400.0 + 0j)
        s[-1] = 600.0
        with pytest.raises(AccuracyError, match="head sum overflows"):
            sf.dirichlet_l_many(s, chi4)
        monkeypatch.undo()
        with pytest.raises(AccuracyError, match="head sum overflows"):
            sf._hurwitz_em(np.array([1000.0 + 0j]), 0.25)
        assert sf.dirichlet_l_many(np.array([400.0 + 0j]), chi4)[0] == 1 + 0j
        assert sf.dirichlet_l(511.0, chi4) == 1 + 0j

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(DomainError):
                sf.zeta_many(np.array([2.0 + 0j]), tol)

    def test_non_finite_points_rejected(self):
        # a head length is taken from each |Im s|, so none may be nan or inf
        for bad in (complex(0.5, math.nan), complex(0.5, math.inf), complex(math.inf, 1.0)):
            with pytest.raises(DomainError, match="finite"):
                sf.zeta_many(np.array([2.0 + 0j, bad]))

    def test_high_strip_against_independent_truncation(self):
        # an independent evaluation of the same point: mpmath at 30 digits
        s = complex(0.6, 5000.0)
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(sf.zeta_complex(s) - want) < 2e-12


def _per_cpu_count(monkeypatch, fn):
    """fn() with specfun seeing 1 and then 2 CPUs; no thread outlives a call."""
    out = []
    for cpus in (1, 2):
        monkeypatch.setattr(sf, "_cpu_count", lambda: cpus)
        before = threading.active_count()
        out.append(fn())
        assert threading.active_count() == before
    return out


class TestRowShares:
    """A vector call cuts its points into blocks of rows and runs them on one
    thread per CPU."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_cover_the_points_once(self, monkeypatch, cpus):
        # 2,000 distinct points up to Im s = 1600 take several head lengths,
        # both phase paths at tol 1e-12, and span more than three blocks
        rng = np.random.default_rng(16)
        s = 0.3 + rng.random(2000) + 1600j * rng.random(2000)
        tol = 1e-12
        monkeypatch.setattr(sf, "_cpu_count", lambda: cpus)
        blocks = []
        pow_negs = sf._pow_negs

        def spy(pts, log_base_ld, extended):
            if np.ndim(log_base_ld) == 1:  # a head sum, not a correction
                blocks.append((pts.copy(), len(log_base_ld), extended))
            return pow_negs(pts, log_base_ld, extended)

        monkeypatch.setattr(sf, "_pow_negs", spy)
        before = threading.active_count()
        sf.zeta_many(s, tol)
        assert threading.active_count() == before
        covered = np.sort_complex(np.concatenate([pts for pts, _, _ in blocks]))
        assert np.array_equal(covered, np.sort_complex(s))
        M = sf._em_head_terms(np.abs(s.imag), tol)
        threads = max(1, min(cpus, -(-int(M.sum()) // sf._EM_TERMS_IN_FLIGHT)))
        assert threads == min(cpus, 3)
        paths = set()
        for pts, m, extended in blocks:
            tau = np.abs(pts.imag)
            assert (sf._em_head_terms(tau, tol) == m).all()
            assert ((tau * np.log(m + 1.0) * 1.2e-16 > 0.05 * tol) == extended).all()
            assert pts.size * m <= sf._EM_TERMS_IN_FLIGHT // threads
            paths.add(extended)
        assert paths == {False, True}

    def test_error_in_a_block_reaches_caller(self, monkeypatch):
        # one point past the correction series' range, in the last of many
        # blocks: the top head length, placed after the others
        monkeypatch.setattr(sf, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(17)
        s = np.append(0.3 + rng.random(2000) + 1600j * rng.random(2000), 1e12 + 1600j)
        before = threading.active_count()
        with pytest.raises(AccuracyError, match="tail estimate"):
            sf.zeta_many(s, 1e-9)
        assert threading.active_count() == before

    def test_zeta_many_same_bits_for_any_thread_count(self, monkeypatch):
        # 2,000 points up to Im s = 1600 span two head-sum blocks
        rng = np.random.default_rng(14)
        s = 0.3 + rng.random(2000) + 1600j * rng.random(2000)
        threads = set()
        pow_negs = sf._pow_negs

        def spy(*args):
            threads.add(threading.get_ident())
            return pow_negs(*args)

        monkeypatch.setattr(sf, "_pow_negs", spy)
        one, two = _per_cpu_count(monkeypatch, lambda: sf.zeta_many(s, 1e-9))
        assert np.array_equal(one.view(np.float64), two.view(np.float64))
        assert len(threads) > 1

    def test_dirichlet_l_many_same_bits_for_any_thread_count(self, monkeypatch, chi4):
        rng = np.random.default_rng(15)
        s = 0.5 + 1200j * rng.random(1500)
        one, two = _per_cpu_count(monkeypatch, lambda: sf.dirichlet_l_many(s, chi4, 1e-9))
        assert np.array_equal(one.view(np.float64), two.view(np.float64))


def _bits(v) -> np.ndarray:
    return np.ascontiguousarray(v).view(np.float64)


class TestBatchIndependence:
    """A value depends only on its own point: the same bits alone and in any
    subset, order or concatenation of a batch."""

    def test_head_length_ladder(self):
        tau = np.array([0.0, 112.0, 112.1, 240.0, 1600.0, 5000.0])
        assert sf._em_head_terms(tau, 1e-9).tolist() == [64, 64, 128, 128, 832, 2560]
        assert sf._em_head_terms(tau, 1e-6).tolist() == [64, 64, 64, 128, 512, 1536]

    def test_low_point_beside_a_high_one(self):
        # 0.7+5000i takes a head of 2,560 terms and 80-bit phases, 0.7+14i
        # a head of 64 and plain phases, in the pair as alone
        alone = sf.zeta_many(np.array([0.7 + 14j]))
        pair = sf.zeta_many(np.array([0.7 + 14j, 0.7 + 5000j]))
        assert np.array_equal(_bits(alone), _bits(pair[:1]))
        assert sf.zeta_many(np.array([0.7 + 5000j]))[0] == pair[1]

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    @pytest.mark.parametrize("fn", ["zeta", "l_chi4"])
    def test_subsets_orders_and_concatenations(self, chi4, fn, tol):
        def f(s):
            if fn == "zeta":
                return sf.zeta_many(s, tol)
            return sf.dirichlet_l_many(s, chi4, tol)

        rng = np.random.default_rng(16)
        s = 0.2 + 1.5 * rng.random(1200) + 4000j * (rng.random(1200) - 0.5)
        s[:2] = 0.7 + 14j, 0.7 + 5000j
        whole = f(s)
        perm = rng.permutation(s.size)
        assert np.array_equal(_bits(f(s[perm])), _bits(whole[perm]))
        assert np.array_equal(_bits(f(s[perm[:150]])), _bits(whole[perm[:150]]))
        both = f(np.concatenate([s[::-3], s]))
        assert np.array_equal(_bits(both), _bits(np.concatenate([whole[::-3], whole])))
        assert np.array_equal(_bits(f(s[:400].reshape(20, 20)).reshape(-1)), _bits(whole[:400]))
        for i in (0, 1, 2, 777):
            assert np.array_equal(_bits(f(s[i : i + 1])), _bits(whole[i : i + 1]))


class TestHurwitz:
    def test_reduces_to_zeta_at_w1(self):
        assert abs(sf.hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6) < 1e-12

    def test_half(self):
        # zeta(2, 1/2) = pi^2/2
        assert sf.hurwitz_zeta(2.0, 0.5).real == pytest.approx(
            math.pi**2 / 2, abs=1e-12
        )

    def test_quarter_vs_direct_sum(self):
        want = hurwitz_direct(3.0, 0.25)
        got = sf.hurwitz_zeta(3.0, 0.25).real
        assert got == pytest.approx(want, abs=1e-9)
        # recomputed oracle value (the quoted 64.38964737 in the source sheet
        # does not match its own stated oracle)
        assert got == pytest.approx(64.66386996876846, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.hurwitz_zeta(2.0, 1.5)
        with pytest.raises(PoleError):
            sf.hurwitz_zeta(1.0, 0.5)


# ---------------------------------------------------------------------------
# Dirichlet L
# ---------------------------------------------------------------------------

class TestDirichletL:
    def test_leibniz(self, chi4):
        ns = np.arange(2 * 10**4, dtype=np.float64)
        terms = (-1.0) ** ns / (2 * ns + 1)
        want = alternating_accelerated(terms)
        got = sf.dirichlet_l(1.0, chi4)
        assert abs(got - want) < 1e-12
        assert got.real == pytest.approx(math.pi / 4, abs=1e-10)

    def test_catalan(self, chi4):
        ns = np.arange(2 * 10**4, dtype=np.float64)
        terms = (-1.0) ** ns / (2 * ns + 1) ** 2
        want = alternating_accelerated(terms)
        assert abs(sf.dirichlet_l(2.0, chi4) - want) < 1e-12
        assert sf.dirichlet_l(2.0, chi4).real == pytest.approx(
            0.915965594177219, abs=1e-10
        )

    def test_principal_rejected(self):
        from sdlab.arith import CharacterTable

        principal = CharacterTable(4, (0, 1, 0, 1))
        with pytest.raises(PrincipalCharacterError):
            sf.dirichlet_l(1.0, principal)

    def test_hurwitz_consistency_against_series(self, chi3, chi4):
        # direct character-series summation vs the Hurwitz assembly
        for chi in (chi3, chi4):
            for base in (0.5, 0.75, 1.0, 2.0):
                for off in (0.0, 5.0, 50.0):
                    s = complex(base, off)
                    want = l_series_direct(s, chi)
                    got = sf.dirichlet_l(s, chi)
                    assert abs(got - want) < 1e-9, (chi.modulus, s)


# ---------------------------------------------------------------------------
# powers, beta
# ---------------------------------------------------------------------------

class TestPowBeta:
    def test_pow_zero_exponent(self):
        assert sf.complex_pow_principal(3.7 - 2j, 0) == 1

    def test_pow_real_root(self):
        assert sf.complex_pow_principal(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_i_to_the_i(self):
        got = sf.complex_pow_principal(1j, 1j)
        assert got.real == pytest.approx(math.exp(-math.pi / 2), abs=1e-15)
        assert abs(got.imag) < 1e-16

    def test_pow_zero_base(self):
        assert sf.complex_pow_principal(0, 3) == 0
        with pytest.raises(DomainError):
            sf.complex_pow_principal(0, -1)
        with pytest.raises(DomainError):
            sf.complex_pow_principal(0, 0.5)

    def test_principal_branch(self):
        # arg in (-pi, pi]: (-1)^(1/2) = +i
        assert sf.complex_pow_principal(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_beta_reflection(self):
        assert sf.beta_fn(0.5, 0.5) == pytest.approx(math.pi, abs=1e-12)

    def test_beta_vs_quadrature(self):
        # adaptive quadrature with the algebraic endpoint weight split off
        for (u, v) in ((2 / 3, 1 / 3), (0.25, 0.25), (1.7, 2.4)):
            want, err = integrate.quad(
                lambda w: 1.0, 0, 1, weight="alg", wvar=(u - 1, v - 1)
            )
            assert err < 1e-10
            assert sf.beta_fn(u, v) == pytest.approx(want, abs=1e-10)
        assert sf.beta_fn(2 / 3, 1 / 3) == pytest.approx(
            2 * math.pi / math.sqrt(3), abs=1e-12
        )
        # recomputed quadrature oracle value (last digits of the quoted
        # 7.416297853 disagree with the oracle)
        assert sf.beta_fn(0.25, 0.25) == pytest.approx(7.416298709205487, abs=1e-10)

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            sf.beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            sf.beta_fn(1.0, -0.3)


class TestRegIncBeta:
    def test_symmetric_half(self):
        for a in (0.25, 1 / 3, 0.5, 2.0, 7.5):
            assert sf.reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_arcsine_identity(self):
        for i in range(1, 20):
            t = 0.05 * i
            want = (2 / math.pi) * math.asin(math.sqrt(t))
            assert sf.reg_inc_beta(t, 0.5, 0.5) == pytest.approx(want, abs=1e-10)

    def test_vs_quadrature(self):
        u, v = 2 / 3, 1 / 3
        b = sf.beta_fn(u, v)
        for t in (0.1, 0.3, 0.77):
            want, err = integrate.quad(
                lambda w: (1 - w) ** (v - 1), 0, t, weight="alg", wvar=(u - 1, 0)
            )
            assert err < 1e-9
            assert sf.reg_inc_beta(t, u, v) == pytest.approx(want / b, abs=1e-9)
        # recomputed oracle value at t=0.3 (the quoted 0.47637 is the (u,v)-
        # swapped value)
        assert sf.reg_inc_beta(0.3, u, v) == pytest.approx(0.2030211290780204, abs=1e-9)

    def test_complement(self, rng):
        for _ in range(50):
            t = float(rng.uniform(0, 1))
            u = float(rng.uniform(0.1, 4))
            v = float(rng.uniform(0.1, 4))
            total = sf.reg_inc_beta(t, u, v) + sf.reg_inc_beta(1 - t, v, u)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_endpoints_and_monotone(self):
        assert sf.reg_inc_beta(0.0, 0.25, 0.25) == 0.0
        assert sf.reg_inc_beta(1.0, 0.25, 0.25) == 1.0
        vals = [sf.reg_inc_beta(0.05 * i, 0.25, 0.25) for i in range(21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.reg_inc_beta(1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            sf.reg_inc_beta(0.5, 0.0, 1.0)
