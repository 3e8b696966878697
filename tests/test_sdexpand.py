import cmath
import math

import mpmath
import numpy as np
import pytest

import oracles
from sdlab import sdexpand as sd
from sdlab import specfun as sf
from sdlab.arith import KappaVector, primes_upto, quadratic_character
from sdlab.errors import DomainError
from sdlab.powerseries import PowerSeries, ps_pow, taylor_at


class TestStieltjes:
    def test_euler_mascheroni(self):
        # gamma_0 is the Euler-Mascheroni constant
        got = sd.stieltjes_constants(1)[0]
        assert got == pytest.approx(0.5772156649015329, abs=1e-13)

    def test_against_independent_evaluation(self):
        # gamma_k = (-1)^k k! / (2 pi i) times the contour integral of
        # zeta(s) / (s-1)^{k+1} around s = 1, evaluated with mpmath.zeta
        # at 40 digits (not mpmath.stieltjes, which made the package's table)
        want = {
            0: 0.57721566490153286061,
            1: -0.072815845483676724861,
            2: -0.0096903631928723184845,
            7: -0.00052728956705775104607,
            15: -0.00028346865532024144664,
            23: -0.0012439620904082457792,
        }
        got = sd.stieltjes_constants(24)
        for k, value in want.items():
            assert abs(got[k] - value) <= 1e-14, k

    def test_table_bits(self):
        # every entry is the double mpmath.stieltjes gives at 53 bits
        got = sd.stieltjes_constants(30)
        for k in range(30):
            with mpmath.workprec(53):
                assert got[k] == float(mpmath.stieltjes(k)), k

    @pytest.mark.parametrize("count", [0, 1, 30])
    def test_counts(self, count):
        got = sd.stieltjes_constants(count)
        assert type(got) is tuple and len(got) == count

    @pytest.mark.parametrize("count", [-1, 31])
    def test_count_out_of_range_rejected(self, count):
        with pytest.raises(DomainError, match=f"got {count}"):
            sd.stieltjes_constants(count)


class TestGammaCoeffs:
    def test_constant_term_is_one(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            kappa = float(rng.uniform(1.0, 3.0))
            c = sd.gamma_coeffs(z, kappa, 6)
            assert abs(c[0] - 1.0) < 1e-12

    def test_zero_power(self):
        c = sd.gamma_coeffs(0.0, 2.0, 8)
        assert c[0] == 1
        assert all(v == 0 for v in c[1:])

    def test_first_coefficient_is_euler_gamma(self):
        c = sd.gamma_coeffs(1.0, 1.0, 8)
        assert c[1].real == pytest.approx(0.5772156649015329, abs=1e-10)
        assert abs(c[1].imag) < 1e-15

    def test_power_functoriality(self, rng):
        # gamma_coeffs(z) equals gamma_coeffs(1) raised to z as a series
        for z in (2.0, 0.5 + 0.25j, -1.3):
            direct = sd.gamma_coeffs(z, 2.0, 10)
            base = PowerSeries(0.5, sd.gamma_coeffs(1.0, 2.0, 10))
            lifted = ps_pow(base, z).coeffs
            assert max(abs(a - b) for a, b in zip(direct, lifted)) < 1e-10

    def test_order_cap(self):
        with pytest.raises(DomainError):
            sd.gamma_coeffs(1.0, 1.0, 25)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            sd.gamma_coeffs(1.0, 1.0, -1)
        with pytest.raises(DomainError):
            sd.expansion_coeffs(sd.squarefull_series_spec(), order=-1)


class TestApplicationSpecs:
    def test_squarefull_lambda0_closed_form(self):
        spec = sd.squarefull_series_spec()
        lam0 = sd.lambda0_closed_form(spec)
        want = sf.zeta_complex(1.5).real / (2.0 * sf.zeta_complex(3.0).real)
        assert lam0.real == pytest.approx(want, abs=1e-12)
        assert lam0.real == pytest.approx(1.0866271562597771, abs=1e-12)

    def test_squarefull_expansion_matches_closed_form(self):
        spec = sd.squarefull_series_spec()
        coeffs = sd.expansion_coeffs(spec, order=8)
        lam0 = sd.lambda0_closed_form(spec)
        assert abs(coeffs.lambda_ell[0] - lam0) < 1e-8

    def test_two_squares_lambda0_is_landau_constant(self):
        # oracle: Euler product over p = 3 (mod 4) up to 1e7 with tail bound
        spec = sd.two_squares_series_spec()
        lam0 = sd.lambda0_closed_form(spec).real
        limit = 10**7
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        p3 = np.nonzero(sieve)[0]
        p3 = p3[p3 % 4 == 3].astype(np.float64)
        oracle = math.exp(-0.5 * float(np.sum(np.log1p(-(p3**-2.0))))) / math.sqrt(2)
        # evaluator truncates at 1e5; both tails are ~1e-7
        tail = oracles.euler_tail_log_estimate(spec.G, 1.0) + 1e-8
        assert abs(lam0 - oracle) <= 2 * tail
        assert lam0 == pytest.approx(0.76422365, abs=5e-7)

    def test_two_squares_lambda1_is_shanks_constant(self):
        # D. Shanks, "The second-order term in the asymptotic expansion of
        # B(x)", Math. Comp. 18 (1964): lambda_1/lambda_0 = c - 1/2 with
        # c = 0.5819486593...  The truncated Euler product (P = 1e5) leaves a
        # gap of 2.5e-6; the exact regular factor (ROADMAP item 8) is to
        # tighten this bound to 1e-10.
        coeffs = sd.expansion_coeffs(sd.two_squares_series_spec(), order=4)
        ratio = coeffs.lambda_ell[1] / coeffs.lambda_ell[0]
        assert abs(ratio.real - 0.0819486593) <= 5e-6
        assert abs(ratio.imag) < 1e-12

    def test_two_squares_expansion_matches_closed_form(self):
        spec = sd.two_squares_series_spec()
        coeffs = sd.expansion_coeffs(spec, order=8)
        lam0 = sd.lambda0_closed_form(spec)
        assert abs(coeffs.lambda_ell[0] - lam0) < 1e-8

    def test_wrong_congruence_differs(self):
        right = sd.lambda0_closed_form(sd.two_squares_series_spec()).real
        wrong = sd.lambda0_closed_form(
            sd.two_squares_series_spec(wrong_congruence=True)
        ).real
        assert wrong == pytest.approx(0.7266986, abs=1e-6)
        assert abs(right - wrong) > 0.03

    def test_nonpositive_integer_leading_power(self):
        spec = sd.SeriesSpec(
            kappa=KappaVector((1.0,)),
            z=(0j,),
            w=(0j,),
            chis=(None,),
            name="zero_power",
        )
        assert sd.lambda0_closed_form(spec) == 0
        coeffs = sd.expansion_coeffs(spec, order=4)
        assert coeffs.lambda_ell[0] == 0

    def test_lambda_vanishes_at_gamma_poles(self):
        spec = sd.squarefull_series_spec()
        coeffs = sd.expansion_coeffs(spec, order=6)
        # z1 = 1: 1/Gamma(1-l) = 0 for every l >= 1
        assert all(v == 0 for v in coeffs.lambda_ell[1:])

    def test_spec_validation(self, chi4):
        with pytest.raises(DomainError):
            sd.SeriesSpec(
                kappa=KappaVector((1.0,)),
                z=(1 + 0j,),
                w=(0.5 + 0j,),
                chis=(None,),
            )

    def test_records_schema(self):
        coeffs = sd.expansion_coeffs(sd.squarefull_series_spec(), order=3)
        rows = coeffs.records()
        assert [r["ell"] for r in rows] == [0, 1, 2, 3]
        assert set(rows[0]) == {"ell", "g_re", "g_im", "lambda_re", "lambda_im"}


class TestMainTerm:
    def test_empty_interval(self):
        spec = sd.squarefull_series_spec()
        out = sd.main_term(spec, 1e6, 0.0, 0)
        assert out.value == 0

    def test_squarefull_lead(self):
        spec = sd.squarefull_series_spec()
        x = 1e12
        out = sd.main_term(spec, x, x**0.45, 0)
        assert (out.value / out.y_prime).real == pytest.approx(
            1.0866271562597771, abs=1e-10
        )

    def test_order_zero_is_leading_coefficient_form(self):
        # N = 0 reduces to y' (log x)^{z-1} lambda_0 exactly
        spec = sd.two_squares_series_spec()
        coeffs = sd.expansion_coeffs(spec, order=4)
        x, y = 1e8, 1e6
        out = sd.main_term(spec, x, y, 0)
        L = math.log(x)
        want = (
            out.y_prime
            * sf.complex_pow_principal(L, complex(spec.z[0]) - 1.0)
            * coeffs.lambda_ell[0]
        )
        assert abs(out.value - want) < 1e-12 * abs(want)

    def test_counting_spec_reproduces_y_prime(self):
        spec = sd.SeriesSpec(
            kappa=KappaVector((1.0,)), z=(1 + 0j,), w=(0j,), chis=(None,), name="count"
        )
        coeffs = sd.expansion_coeffs(spec, order=5)
        assert coeffs.lambda_ell[0] == 1
        for n in (0, 2, 5):
            out = sd.main_term(spec, 1e6, 1000.0, n)
            assert out.value.real == out.y_prime
            assert out.value.imag == 0

    def test_envelope_shape(self):
        spec = sd.squarefull_series_spec()
        x, y = 1e10, 1e4
        out = sd.main_term(spec, x, y, 2)
        L = math.log(x)
        want = (
            (3.0 / L) ** 3
            + 3.0**3 * math.exp(-((L / math.log(L)) ** (1 / 3)))
            + y / (x**0.5 * L)
        )
        assert out.envelope == pytest.approx(want, rel=1e-12)

    def test_domain_checks(self):
        spec = sd.squarefull_series_spec()
        with pytest.raises(DomainError):
            sd.main_term(spec, 2.0, 1.0, 0)
        with pytest.raises(DomainError):
            sd.main_term(spec, 1e6, 1e6, 0)  # y > x^(1/2)


class TestExpansionRadius:
    def test_radius_independence(self):
        # the ring's Taylor data at expansion_coeffs' radius, which are the
        # ones its g_l are built from, and at a smaller radius
        spec = sd.squarefull_series_spec()
        fn, s0 = sd._regular_factor(spec), 1.0 / spec.kappa1
        a = taylor_at(fn, s0, 6, sd._expansion_radius(spec))
        b = taylor_at(fn, s0, 6, 1.0 / 24.0)
        gam = sd.gamma_coeffs(complex(spec.z[0]), spec.kappa1, 6)
        assert sd.expansion_coeffs(spec, order=6).g_ell == (PowerSeries(s0, gam) * a).coeffs
        for j, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
            assert abs(x - y) < 1e-9 * max(1.0, abs(x)), j


def _ring(spec):
    # the 512-node ring of taylor_at around 1/kappa_1
    theta = 2.0 * math.pi * np.arange(512) / 512
    return 1.0 / spec.kappa1 + sd._expansion_radius(spec) * np.exp(1j * theta)


def _scalar_G(G, s):
    # one node at a time, the scalar formulas of each regular-factor kind
    if isinstance(G, sd.ZetaCompositionG):
        out = 1.0 + 0j
        for m, e in G.factors:
            out *= sf.complex_pow_principal(sf.zeta_complex(m * s), e)
        return out
    if isinstance(G, sd.EulerProductG):
        acc = 0j
        for p0, a0, e0 in G.extra:
            acc += e0 * cmath.log(1.0 - cmath.exp(-a0 * s * math.log(p0)))
        primes = primes_upto(G.prime_limit)
        lp = np.log(primes[np.isin(primes % G.modulus, G.residues)].astype(np.float64))
        acc += G.e * complex(np.sum(np.log1p(-np.exp(-G.a * s * lp))))
        return cmath.exp(acc)
    return 1.0 + 0j  # G = None, the constant 1


def _scalar_regular_factor(spec, s):
    # an Euler product is not on the ring: expansion_coeffs takes its series
    out = 1.0 + 0j if isinstance(spec.G, sd.EulerProductG) else complex(_scalar_G(spec.G, s))
    k = spec.kappa.kappa
    for i in range(1, spec.r):
        if spec.z[i] != 0:
            out *= sf.complex_pow_principal(sf.zeta_complex(k[i] * s), spec.z[i])
    for i in range(spec.r):
        if spec.w[i] != 0:
            out *= sf.complex_pow_principal(sf.dirichlet_l(k[i] * s, spec.chis[i]), spec.w[i])
    return out


class TestVectorRegularFactor:
    @pytest.mark.parametrize(
        "make",
        [
            sd.squarefull_series_spec,
            sd.two_squares_series_spec,
            lambda: sd.two_squares_series_spec(wrong_congruence=True),
        ],
        ids=["squarefull", "two_squares", "wrong_congruence"],
    )
    def test_ring_matches_per_node_loop(self, make):
        spec = make()
        ring = _ring(spec)
        got = sd._regular_factor(spec)(ring)
        want = np.array([_scalar_regular_factor(spec, complex(s)) for s in ring])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("residue", [3, 1])
    def test_euler_product_many_matches_scalar(self, residue):
        G = _two_squares_G(residue, sd.EulerProductG.prime_limit)
        ring = _ring(sd.two_squares_series_spec())
        want = np.array([_scalar_G(G, complex(s)) for s in ring])
        assert np.array_equal(G.many(ring).view(np.float64), want.view(np.float64))


def _two_squares_G(residue, prime_limit):
    G = sd.EulerProductG(a=2.0, e=-0.5, modulus=4, residues=(residue,), extra=((2, 1.0, -0.5),))
    G.prime_limit = prime_limit
    return G


class TestEulerTaylor:
    @pytest.mark.parametrize("residue", [3, 1])
    def test_matches_mpmath_taylor(self, residue):
        # the same truncated product, expanded by mpmath at 30 digits
        G = _two_squares_G(residue, 1000)
        got = G.taylor(1.0, 8).coeffs
        ps = [int(p) for p in primes_upto(1000) if p % 4 == residue]

        def f(s):
            acc = -mpmath.log(1 - mpmath.power(2, -s)) / 2
            for p in ps:
                acc -= mpmath.log(1 - mpmath.power(p, -2 * s)) / 2
            return mpmath.exp(acc)

        with mpmath.workdps(30):
            want = [float(c) for c in mpmath.taylor(f, mpmath.mpf(1), 8)]
        for j, (g, w) in enumerate(zip(got, want)):
            assert g.imag == 0 and abs(g.real - w) <= 1e-14 * abs(w), j

    def test_two_squares_g_matches_reference(self):
        # g_0..g_8 of ((s-1) zeta(s) L(s, chi_4))^(1/2) G(s) at s = 1 with
        # P = 1e5: bench/reference.json's "two_squares_g", which
        # bench/reference.py takes from mpmath.taylor at 30 digits
        want = [
            1.3545508854076096,
            -0.22200048094833555,
            0.7549844951239238,
            -1.1892514704230157,
            1.9257711772578123,
            -3.2258636707436423,
            5.525118296755538,
            -9.56657309354816,
            16.582352626524077,
        ]
        got = sd.expansion_coeffs(sd.two_squares_series_spec(), order=8).g_ell
        for l, (g, w) in enumerate(zip(got, want)):
            assert abs(g.real - w) <= 5e-13 * abs(w), l

    @pytest.mark.parametrize("residue", [3, 1])
    def test_agrees_with_ring(self, residue):
        # within taylor_at's own check: |delta c_j| r^j <= 1e-10
        G = _two_squares_G(residue, sd.EulerProductG.prime_limit)
        radius = 0.25
        ring = taylor_at(G.many, 1.0, 8, radius).coeffs
        series = G.taylor(1.0, 8).coeffs
        assert max(abs(a - b) * radius**j for j, (a, b) in enumerate(zip(ring, series))) <= 1e-10

    def test_domain(self):
        # p^(-a s0) >= 1 for a prime of the product or an extra factor
        with pytest.raises(DomainError, match="Euler product"):
            sd.EulerProductG(a=2.0, e=-0.5, modulus=4, residues=(3,)).taylor(0.0, 4)
        with pytest.raises(DomainError, match="extra factor"):
            _two_squares_G(3, 1000).taylor(-0.5, 4)
        with pytest.raises(DomainError, match="order"):
            _two_squares_G(3, 1000).taylor(1.0, -1)


class TestEulerTail:
    def test_q4_value_unchanged(self):
        G = sd.two_squares_series_spec().G
        assert oracles.euler_tail_log_estimate(G, 1.0) == 2.1714724095162593e-07

    @pytest.mark.parametrize("modulus, residues", [(4, (3,)), (12, (11,))])
    def test_bounds_the_neglected_tail(self, modulus, residues):
        # the primes p = 11 (mod 12) have density 1/phi(12) = 1/4; the
        # estimate must exceed the part of the tail out to 3e6 alone
        G = sd.EulerProductG(a=2.0, e=-0.5, modulus=modulus, residues=residues)
        p = primes_upto(3 * 10**6)
        p = p[(p > G.prime_limit) & np.isin(p % modulus, residues)].astype(np.float64)
        tail = 0.5 * float(-np.sum(np.log1p(-(p**-2.0))))
        assert tail < oracles.euler_tail_log_estimate(G, 1.0) < 1.5 * tail
