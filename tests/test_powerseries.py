import cmath
import math

import numpy as np
import pytest

from sdlab import specfun as sf
from sdlab.errors import AccuracyError, DomainError, SingularLeadError
from sdlab.powerseries import PowerSeries, ps_exp, ps_log, ps_pow, taylor_at


def random_series(rng, order=16, scale=0.35):
    # unit constant term, geometrically decaying random coefficients: stays
    # well inside the convergence disc of the formal operations
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(complex(rng.normal(), rng.normal()) * scale**k)
    return PowerSeries(0j, tuple(coeffs))


class TestFormalOps:
    def test_exp_log_roundtrip(self, rng):
        for _ in range(10):
            a = random_series(rng)
            b = ps_exp(ps_log(a))
            assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < 1e-12

    def test_pow_zero(self, rng):
        a = random_series(rng)
        p = ps_pow(a, 0)
        assert p.coeffs[0] == 1
        assert all(c == 0 for c in p.coeffs[1:])

    def test_pow_two_is_square(self, rng):
        for _ in range(10):
            a = random_series(rng)
            p = ps_pow(a, 2)
            sq = a * a
            assert max(abs(x - y) for x, y in zip(p.coeffs, sq.coeffs)) < 1e-12

    def test_singular_lead(self):
        a = PowerSeries(0j, (0j, 1 + 0j))
        with pytest.raises(SingularLeadError):
            ps_log(a)
        with pytest.raises(SingularLeadError):
            ps_pow(a, 0.5)

    def test_mul_matches_polynomial_eval(self, rng):
        a = random_series(rng, order=8)
        b = random_series(rng, order=8)
        prod = a * b
        s = 0.2 + 0.1j
        # truncated product agrees with product of evaluations up to O(s^9)
        direct = a.eval(s) * b.eval(s)
        assert abs(prod.eval(s) - direct) < abs(s) ** 9 * 50


class TestTaylorAt:
    def test_identity(self):
        ps = taylor_at(lambda s: s, 0j, 4, 0.8)
        want = (0, 1, 0, 0, 0)
        assert max(abs(c - w) for c, w in zip(ps.coeffs, want)) < 1e-13

    def test_exp(self):
        ps = taylor_at(np.exp, 0j, 6, 0.9)
        for j, c in enumerate(ps.coeffs):
            assert abs(c - 1.0 / math.factorial(j)) < 1e-12

    def test_zeta3s_vs_finite_differences(self):
        fn = lambda s: sf.zeta_complex(3 * s)
        ps = taylor_at(lambda s: sf.zeta_many(3 * s), 0.5, 4, 0.15)

        def fd(h):
            xs = np.array([-3, -2, -1, 0, 1, 2, 3], dtype=float) * h + 0.5
            f = np.array([fn(complex(x)).real for x in xs])
            return np.array(
                [
                    f[3],
                    (f[4] - f[2]) / (2 * h),
                    (f[4] - 2 * f[3] + f[2]) / (2 * h**2),
                    (f[5] - 2 * f[4] + 2 * f[2] - f[1]) / (12 * h**3),
                    (f[5] - 4 * f[4] + 6 * f[3] - 4 * f[2] + f[1]) / (24 * h**4),
                ]
            )

        def richardson(h):
            a, b, c = fd(h), fd(h / 2), fd(h / 4)
            ab = (4 * b - a) / 3
            bc = (4 * c - b) / 3
            return (16 * bc - ab) / 15

        oracle = richardson(0.01)
        got = np.array([c.real for c in ps.coeffs])
        np.testing.assert_allclose(got, oracle, rtol=2e-7)
        # regression values from the verified run
        np.testing.assert_allclose(
            got,
            [
                2.6123753486854886,
                -11.796719212293308,
                71.95300367051561,
                -432.0044730303103,
                2592.0064426833374,
            ],
            rtol=1e-11,
        )

    def test_radius_independence(self):
        fn = lambda s: sf.zeta_many(3 * s)
        a = taylor_at(fn, 0.5, 4, 0.12)
        b = taylor_at(fn, 0.5, 4, 0.06)
        for j, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
            assert abs(x - y) < 1e-9 * max(1.0, abs(x)), j

    def test_accuracy_error_near_singularity(self):
        # pole of zeta(3s) at s=1/3 almost touches |s-0.5| = 0.1665, so the
        # trapezoid sums converge too slowly for node doubling to agree
        with pytest.raises(AccuracyError):
            taylor_at(lambda s: sf.zeta_many(3 * s), 0.5, 4, 0.1665)

    def test_one_call_on_512_nodes(self):
        calls = []

        def fn(s):
            calls.append(np.array(s))
            return np.exp(s)

        taylor_at(fn, 0.25, 5, 0.5)
        assert len(calls) == 1
        assert calls[0].shape == (512,)
        # the even nodes are the 256-node ring, bit for bit
        theta = 2.0 * math.pi * np.arange(256) / 256
        assert np.array_equal(calls[0][::2], 0.25 + 0.5 * np.exp(1j * theta))

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            taylor_at(cmath.exp, 0j, 3, 0.0)
