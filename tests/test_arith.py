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


# Reference loops with one step for every index up to the limit, which
# dirichlet_convolve and dirichlet_inverse must match byte for byte.

def convolve_full_range(a, b):
    n = a.limit
    out = np.zeros(n + 1, dtype=np.result_type(a.values, b.values))
    av, bv = a.values, b.values
    for d in range(1, n + 1):
        if av[d] != 0:
            out[d::d] += av[d] * bv[1 : n // d + 1]
    return out


def inverse_full_range(a):
    n = a.limit
    av = a.values
    lead = av[1]
    exact = a.exact and int(lead) in (1, -1)
    b = np.zeros(n + 1, dtype=np.int64 if exact else np.complex128)
    inv_lead = int(lead) if exact else 1.0 / complex(lead)
    b[1] = inv_lead
    av_c = av if exact else av.astype(np.complex128)
    for d in range(1, n // 2 + 1):
        if b[d] != 0:
            b[2 * d :: d] -= (b[d] * inv_lead) * av_c[2 : n // d + 1]
    return b


def _signed_zero_vector():
    # non-unit lead; nonzero entries with a -0.0 real or imaginary part, and
    # entries -0.0-0.0j, which are zero and so get no step in either loop
    r = np.random.default_rng(7)
    n = 3000
    v = np.zeros(n + 1, dtype=np.complex128)
    v[1] = 2.0 - 0.5j
    idx = r.choice(np.arange(2, n + 1), size=400, replace=False)
    v[idx] = r.normal(size=400) + 1j * r.normal(size=400)
    v[idx[:100]] = complex(-0.0, 1.0)
    v[idx[100:150]] = complex(1.0, -0.0)
    v[idx[150:200]] = complex(-0.0, -0.0)
    return ar.CoeffVector(n, v)


class TestSupportLoops:
    @pytest.fixture(scope="class")
    def vectors(self, chi3, chi4):
        tau = ar.tau_chi_coeffs(10**5, ar.KappaVector((2, 3)), (chi3, chi4))
        return {
            "tau_1e5": tau,
            "ones_1e4": ar.ones_coeffs(10**4),
            "complex_signed_zeros": _signed_zero_vector(),
        }

    @pytest.mark.parametrize("name", ["tau_1e5", "ones_1e4", "complex_signed_zeros"])
    def test_bytes_match_full_range_loops(self, vectors, name):
        a = vectors[name]
        want_inv = inverse_full_range(a)
        inv = ar.dirichlet_inverse(a)
        assert inv.values.dtype == want_inv.dtype
        assert inv.values.tobytes() == want_inv.tobytes()
        b = ar.CoeffVector(a.limit, want_inv)
        want = convolve_full_range(a, b)
        got = ar.dirichlet_convolve(a, b).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_truncated_inverse_phi_bytes(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        x, limit = 1000, 10**5
        tau = ar.tau_chi_coeffs(limit, kv, (chi3, chi4))
        truncated = inverse_full_range(tau)
        truncated[x + 1 :] = 0
        want = convolve_full_range(ar.CoeffVector(limit, truncated), tau)
        got = ar.truncated_inverse_phi(x, limit, kv, (chi3, chi4)).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _bigint_convolve(a, b):
    n = len(a) - 1
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for k in range(1, n // d + 1):
            out[d * k] += a[d] * b[k]
    return out


def _bigint_inverse(a):
    n = len(a) - 1
    b = [0] * (n + 1)
    b[1] = a[1]  # a(1) = +-1 is its own inverse
    for m in range(2, n + 1):
        b[m] = -a[1] * sum(b[d] * a[m // d] for d in range(1, m) if m % d == 0)
    return b


def _fits_int64(values):
    return all(-(2**63) <= v < 2**63 for v in values)


_coeff_lists = st.integers(1, 64).flatmap(
    lambda n: st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n)
)


class TestOverflow:
    def test_inverse_repro_raises(self):
        # a = (1, 1000, 1000, ...): b(128) is -10^21, which wrapped before
        v = np.full(257, 1000, dtype=np.int64)
        v[0], v[1] = 0, 1
        with pytest.raises(CapacityError):
            ar.dirichlet_inverse(ar.CoeffVector(256, v))

    def test_inverse_negative_coefficient_raises(self):
        # a(2) = -2^40: b(4) = 2^80 would wrap to 0; the bound must use |a|
        v = np.zeros(9, dtype=np.int64)
        v[1], v[2] = 1, -(2**40)
        with pytest.raises(CapacityError):
            ar.dirichlet_inverse(ar.CoeffVector(8, v))

    @pytest.mark.parametrize("fill", [2**32, -(2**32)])
    def test_convolve_raises(self, fill):
        v = np.full(17, fill, dtype=np.int64)
        v[0] = 0
        a = ar.CoeffVector(16, v)
        with pytest.raises(CapacityError):
            ar.dirichlet_convolve(a, a)

    def test_quiet_on_large_exact_vectors(self, chi3, chi4):
        kv = ar.KappaVector((2, 3))
        tau = ar.tau_chi_coeffs(10**6, kv, (chi3, chi4))
        conv = ar.dirichlet_convolve(tau, ar.dirichlet_inverse(tau))
        assert conv[1] == 1 and not conv.values[2:].any()
        ar.truncated_inverse_phi(1000, 10**6, kv, (chi3, chi4))
        mu = ar.moebius_coeffs(10**6)
        assert mu[999983] == -1 and mu[10**6] == 0

    @settings(max_examples=200, deadline=None)
    @given(_coeff_lists, st.sampled_from([1, -1]))
    def test_inverse_exact_or_raises(self, tail, lead):
        a = [0, lead] + tail[1:]
        want = _bigint_inverse(a)
        try:
            got = ar.dirichlet_inverse(ar.CoeffVector(len(a) - 1, np.array(a, dtype=np.int64)))
        except CapacityError:
            return
        assert _fits_int64(want)
        assert got.values.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(_coeff_lists)
    def test_convolution_powers_exact_or_raise(self, tail):
        # a, a*a, a*a*a, a*a*a*a: values reach 10^24 within four factors
        a = [0] + tail
        n = len(tail)
        av = ar.CoeffVector(n, np.array(a, dtype=np.int64))
        got, want = av, a
        for _ in range(3):
            want = _bigint_convolve(want, a)
            try:
                got = ar.dirichlet_convolve(got, av)
            except CapacityError:
                return
            assert _fits_int64(want)
            assert got.values.tolist() == want


class TestLimitValidation:
    @pytest.mark.parametrize("build", [
        ar.unit_coeffs,
        ar.ones_coeffs,
        ar.moebius_coeffs,
        lambda n: ar.tau_kk_coeffs(n, ar.KappaVector((1,))),
        lambda n: ar.tau_chi_coeffs(n, ar.KappaVector((1,)), (None,)),
    ], ids=["unit", "ones", "moebius", "tau_kk", "tau_chi"])
    def test_limit_zero_rejected(self, build):
        with pytest.raises(DomainError):
            build(0)
        assert build(1).limit == 1


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
