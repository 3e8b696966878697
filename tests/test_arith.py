import math
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import arith as ar
from sdlab.errors import (
    CapacityError,
    DomainError,
    LimitMismatchError,
    NonInvertibleError,
    PrincipalCharacterError,
)


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

class TestSieve:
    def test_examples(self, sieve_1e6):
        assert sieve_1e6.spf[9] == 3
        assert sieve_1e6.spf[91] == 7

    def test_guards(self):
        with pytest.raises(CapacityError):
            ar.build_sieve(1)
        with pytest.raises(CapacityError):
            ar.build_sieve(10**9 + 1)

    def test_reconstruction_all_n(self, sieve_1e6):
        # product of extracted prime powers recovers n, for every n <= 1e6
        spf = sieve_1e6.spf
        n = np.arange(2, 10**6 + 1, dtype=np.int64)
        residual = n.copy()
        product = np.ones_like(n)
        while residual.max() > 1:
            active = residual > 1
            p = spf[residual[active]]
            product[active] *= p
            residual[active] //= p
        assert np.array_equal(product, n)

    def test_spf_is_smallest(self, sieve_1e6):
        spf = sieve_1e6.spf
        for n in (2, 4, 15, 77, 121, 999983, 2 * 499979):
            p = int(spf[n])
            assert n % p == 0
            assert all(n % q for q in range(2, p))

    def test_primes_upto_matches_spf(self, sieve_1e5):
        n = np.arange(2, 10**5 + 1)
        assert np.array_equal(ar.primes_upto(10**5), n[sieve_1e5.spf[2:] == n])
        assert ar.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert ar.primes_upto(1).size == 0


class TestIndicators:
    def test_squarefull_examples(self, sieve_1e6):
        assert ar.is_squarefull(1, sieve_1e6)
        assert ar.is_squarefull(72, sieve_1e6)
        assert not ar.is_squarefull(12, sieve_1e6)

    def test_squarefull_against_a2b3_enumeration(self, sieve_1e6):
        limit = 10**6
        members = set()
        b = 1
        while b**3 <= limit:
            if all(b % (p * p) for p in range(2, isqrt(b) + 1)):
                a = 1
                while a * a * b**3 <= limit:
                    members.add(a * a * b**3)
                    a += 1
            b += 1
        flags = np.zeros(limit + 1, dtype=bool)
        flags[list(members)] = True
        for n in range(1, limit + 1):
            assert ar.is_squarefull(n, sieve_1e6) == bool(flags[n]), n

    def test_two_squares_examples(self, sieve_1e6):
        assert ar.is_sum_two_squares(9, sieve_1e6)
        assert not ar.is_sum_two_squares(7, sieve_1e6)
        assert ar.is_sum_two_squares(2, sieve_1e6)

    def test_two_squares_brute_force(self, sieve_1e5):
        limit = 10**5
        rep = np.zeros(limit + 1, dtype=bool)
        amax = isqrt(limit)
        for a in range(amax + 1):
            b2 = np.arange(0, isqrt(limit - a * a) + 1) ** 2
            rep[a * a + b2] = True
        for n in range(1, limit + 1):
            assert ar.is_sum_two_squares(n, sieve_1e5) == bool(rep[n]), n


class TestDivisorCdf:
    def test_example_n12(self, sieve_1e6):
        assert ar.divisor_cdf(12, 0.5, sieve_1e6) == Fraction(1, 2)

    def test_endpoints(self, sieve_1e6):
        for n in (2, 12, 97, 360):
            tau = len(ar.divisors(n, sieve_1e6))
            assert ar.divisor_cdf(n, 1.0, sieve_1e6) == 1
            assert ar.divisor_cdf(n, 0.0, sieve_1e6) == Fraction(1, tau)

    def test_monotone_cdf(self, sieve_1e6, rng):
        for n in rng.integers(2, 10**6, size=20):
            vals = [ar.divisor_cdf(int(n), 0.05 * i, sieve_1e6) for i in range(21)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# kappa vectors and characters
# ---------------------------------------------------------------------------

class TestKappaAndCharacters:
    def test_kappa_validation(self):
        ar.KappaVector((2.0, 3.0))
        with pytest.raises(DomainError):
            ar.KappaVector((3.0, 2.0))
        with pytest.raises(DomainError):
            ar.KappaVector((0.5,))
        with pytest.raises(DomainError):
            ar.KappaVector((1.0, 2.5))  # kappa_r > 2 kappa_1

    def test_character_tables(self, chi3, chi4):
        assert chi4(3) == -1 and chi4(5) == 1 and chi4(2) == 0
        assert chi3(2) == -1 and chi3(4) == 1
        # multiplicativity and vanishing checked at construction
        with pytest.raises(DomainError):
            ar.CharacterTable(4, (0, 1, 1, -1))
        with pytest.raises(DomainError):
            ar.CharacterTable(5, (0, 1, 1, 1, -1))

    def test_quadratic_character_mod_7(self):
        chi7 = ar.quadratic_character(7)
        for a in range(1, 7):
            want = 1 if pow(a, 3, 7) == 1 else -1
            assert chi7(a) == want


# ---------------------------------------------------------------------------
# tau coefficients
# ---------------------------------------------------------------------------

def tau_kk_enumerate(n: int, kappas) -> int:
    """Exhaustive tuple enumeration over m_1^k1 m_2^k2 n_1^k1 n_2^k2 = n."""
    slots = list(kappas) + list(kappas)

    def count(rem: int, idx: int) -> int:
        if idx == len(slots):
            return 1 if rem == 1 else 0
        k = slots[idx]
        total = 0
        m = 1
        while m**k <= rem:
            if rem % (m**k) == 0:
                total += count(rem // m**k, idx + 1)
            m += 1
        return total

    return count(n, 0)


class TestTauKK:
    def test_unit(self):
        assert ar.tau_kk(1, ar.KappaVector((2, 3))) == 1

    def test_examples(self):
        kv = ar.KappaVector((2, 3))
        assert ar.tau_kk(64, kv) == 7
        assert ar.tau_kk(4, kv) == 2

    def test_against_enumeration(self):
        kv = ar.KappaVector((2, 3))
        for n in range(1, 300):
            assert ar.tau_kk(n, kv) == tau_kk_enumerate(n, (2, 3)), n

    def test_stream_agrees_with_scalar(self):
        kv = ar.KappaVector((2, 3))
        coeffs = ar.tau_kk_coeffs(2000, kv)
        for n in range(1, 2001):
            assert coeffs[n] == ar.tau_kk(n, kv), n


class TestTauChi:
    def test_unit_and_example(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(100, kv, (chi3, chi4))
        assert tau[1] == 1
        # n = 4: tuples (m1, n1) in {(2,1), (1,2)}: 1 + chi3(2) = 0
        assert tau[4] == 1 + chi3(2)

    def test_against_tuple_enumeration(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(1000, kv, (chi3, chi4))

        def direct(n):
            total = 0
            m1 = 1
            while m1**2 <= n:
                r1 = n // m1**2
                if m1**2 * r1 == n:
                    m2 = 1
                    while m2**3 <= r1:
                        if r1 % m2**3 == 0:
                            r2 = r1 // m2**3
                            n1 = 1
                            while n1**2 <= r2:
                                if r2 % n1**2 == 0:
                                    r3 = r2 // n1**2
                                    n2 = round(r3 ** (1 / 3))
                                    for cand in (n2 - 1, n2, n2 + 1):
                                        if cand >= 1 and cand**3 == r3:
                                            total += chi3(n1) * chi4(cand)
                                n1 += 1
                        m2 += 1
                m1 += 1
            return total

        for n in range(1, 1001):
            assert tau[n] == direct(n), n

    def test_bounded_by_tau_kk(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(10**4, kv, (chi3, chi4))
        bound = ar.tau_kk_coeffs(10**4, kv)
        assert np.all(np.abs(tau.values) <= bound.values)

    def test_principal_rejected(self, chi3):
        principal = ar.CharacterTable(4, (0, 1, 0, 1), principal=True)
        with pytest.raises(PrincipalCharacterError):
            ar.tau_chi_coeffs(50, ar.KappaVector((2, 3)), (chi3, principal))

    def test_absent_character_drops_l_stream(self, chi4):
        # chis = (None, chi4): zeta(2s) zeta(3s) L(3s, chi4), so tau(n) sums
        # chi4(c) over n = a^2 b^3 c^3
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(400, kv, (None, chi4))
        assert tau.exact
        want = [0] * 401
        for a in range(1, 21):
            for b in range(1, 8):
                for c in range(1, 8):
                    n = a * a * b**3 * c**3
                    if n <= 400:
                        want[n] += chi4(c)
        assert tau.values[1:].tolist() == want[1:]
        principal = ar.CharacterTable(4, (0, 1, 0, 1), principal=True)
        with pytest.raises(PrincipalCharacterError):
            ar.tau_chi_coeffs(50, kv, (None, principal))

    def test_non_integer_kappa_rejected(self, chi3):
        with pytest.raises(DomainError):
            ar.tau_chi_coeffs(50, ar.KappaVector((1.5,)), (chi3,))


# ---------------------------------------------------------------------------
# convolution and inversion
# ---------------------------------------------------------------------------

class TestConvolution:
    def test_unit(self, rng):
        vals = np.zeros(201, dtype=np.int64)
        vals[1:] = rng.integers(-9, 10, size=200)
        a = ar.CoeffVector(200, vals)
        out = ar.dirichlet_convolve(ar.unit_coeffs(200), a)
        assert np.array_equal(out.values, a.values)

    def test_divisor_count(self):
        ones = ar.ones_coeffs(100)
        tau = ar.dirichlet_convolve(ones, ones)
        assert tau[12] == 6
        assert tau[1] == 1
        assert tau[97] == 2

    def test_limit_mismatch(self):
        with pytest.raises(LimitMismatchError):
            ar.dirichlet_convolve(ar.ones_coeffs(10), ar.ones_coeffs(11))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associative_commutative(self, seed):
        r = np.random.default_rng(seed)
        n = 200
        vs = []
        for _ in range(3):
            v = np.zeros(n + 1, dtype=np.int64)
            v[1:] = r.integers(-4, 5, size=n)
            vs.append(ar.CoeffVector(n, v))
        a, b, c = vs
        ab_c = ar.dirichlet_convolve(ar.dirichlet_convolve(a, b), c)
        a_bc = ar.dirichlet_convolve(a, ar.dirichlet_convolve(b, c))
        assert np.array_equal(ab_c.values, a_bc.values)
        assert np.array_equal(
            ar.dirichlet_convolve(a, b).values, ar.dirichlet_convolve(b, a).values
        )


class TestInverse:
    def test_moebius(self, sieve_1e6):
        # against mu(n) read off each factorization
        mu = ar.moebius_coeffs(500)
        for n in range(1, 501):
            fac = ar.factorize(n, sieve_1e6)
            want = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
            assert mu[n] == want, n
        assert mu.exact and mu[6] == 1 and mu[30] == -1 and mu[12] == 0

    def test_non_invertible(self):
        vals = np.zeros(11, dtype=np.int64)
        with pytest.raises(NonInvertibleError):
            ar.dirichlet_inverse(ar.CoeffVector(10, vals))

    def test_involution_on_random_integer_vectors(self, rng):
        for _ in range(5):
            vals = np.zeros(501, dtype=np.int64)
            vals[1] = 1
            vals[2:] = rng.integers(-6, 7, size=499)
            a = ar.CoeffVector(500, vals)
            back = ar.dirichlet_inverse(ar.dirichlet_inverse(a))
            assert np.array_equal(back.values, a.values)

    def test_tau_inverse_formula(self, chi3, chi4):
        # inverse coefficients match the mu(m_i) mu(n_i) chi_i(n_i) enumeration
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(1000, kv, (chi3, chi4))
        tinv = ar.dirichlet_inverse(tau)
        mu = ar.moebius_coeffs(1000)

        def direct(n):
            total = 0
            for m1 in range(1, isqrt(n) + 1):
                if n % (m1 * m1):
                    continue
                r1 = n // (m1 * m1)
                m2 = 1
                while m2**3 <= r1:
                    if r1 % m2**3 == 0:
                        r2 = r1 // m2**3
                        for n1 in range(1, isqrt(r2) + 1):
                            if r2 % (n1 * n1):
                                continue
                            r3 = r2 // (n1 * n1)
                            n2 = round(r3 ** (1 / 3))
                            for cand in (n2 - 1, n2, n2 + 1):
                                if cand >= 1 and cand**3 == r3:
                                    total += (
                                        mu[m1] * mu[m2] * mu[n1] * mu[cand]
                                        * chi3(n1) * chi4(cand)
                                    )
                    m2 += 1
            return total

        for n in range(1, 1001):
            assert tinv[n] == direct(n), n

    def test_convolution_identity(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(10**4, kv, (chi3, chi4))
        tinv = ar.dirichlet_inverse(tau)
        conv = ar.dirichlet_convolve(tau, tinv)
        assert conv.exact
        assert conv[1] == 1
        assert not conv.values[2:].any()


class TestTruncatedInverse:
    def test_identities(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        x, limit = 1000, 2000
        phi = ar.truncated_inverse_phi(x, limit, kv, (chi3, chi4))
        assert phi[1] == 1
        assert not phi.values[2 : x + 1].any()
        tkk = ar.tau_kk_coeffs(limit, kv)
        bound = ar.dirichlet_convolve(tkk, tkk)
        assert np.all(
            np.abs(phi.values[x + 1 :]) <= bound.values[x + 1 :]
        )

    def test_limit_guard(self, chi3, chi4):
        with pytest.raises(DomainError):
            ar.truncated_inverse_phi(100, 50, ar.KappaVector((2, 3)), (chi3, chi4))
