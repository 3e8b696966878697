import bisect
import itertools
import math
import multiprocessing
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from sdlab import arith as ar
from sdlab import intervals as iv
from sdlab import specfun as sf
from sdlab.errors import CapacityError, DomainError, EmptyIntervalError


def squarefull_law_oracle(t):
    """P(V/2 + W <= t) for (U, V, W) ~ Dirichlet(1/3, 1/3, 1/3) by adaptive
    scipy quadrature, conditioning on W ~ Beta(1/3, 2/3).  Above t = 1/2 the
    conditional probability is 1 for w < 2t - 1; no symmetry is assumed."""
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    third = 1.0 / 3.0
    lo = max(0.0, 2.0 * t - 1.0)

    def f(w):
        density = w ** (-2 * third) * (1 - w) ** (-third) / special.beta(third, 2 * third)
        return density * special.betainc(third, third, 2 * (t - w) / (1 - w))

    with warnings.catch_warnings():
        # at t = 1/2 the singular powers w^(-2/3) and w^(-1/3) meet at w = 0
        # and QUADPACK reports roundoff; the value is still good to 2e-13
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, lo, t, epsabs=1e-14, epsrel=1e-13, limit=200)
    return float(special.betainc(third, 2 * third, lo)) + val


def trial_factor(n):
    """(prime, exponent) pairs of n by trial division, ascending primes."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def squarefull_scalar_sums(lo, hi, ts):
    """(count, sums) of F_n(t) over the square-full n in (lo, hi], one member
    at a time in ascending order: n = a^2 b^3 with b squarefree, factored by
    trial division of a and b, divisor logs by oracles.divisor_logs, counts by
    searchsorted and a sequential +=."""
    members = []
    b = 1
    while b**3 <= hi:
        if all(e == 1 for _, e in trial_factor(b)):
            b3 = b**3
            a = math.isqrt(lo // b3)
            while a * a * b3 <= lo:
                a += 1
            while a * a * b3 <= hi:
                members.append((a * a * b3, a, b))
                a += 1
        b += 1
    sums = np.zeros(len(ts))
    for n, a, b in sorted(members):
        exps = {p: 2 * e for p, e in trial_factor(a)}
        for p, _ in trial_factor(b):
            exps[p] = exps.get(p, 0) + 3
        logs = np.sort(oracles.divisor_logs(sorted(exps.items())))
        cut = np.array(ts) * math.log(n) + ar._THRESHOLD_GUARD
        sums += np.searchsorted(logs, cut, side="right") / logs.size
    return len(members), sums


class TestEnumerateSquarefull:
    def test_first_window(self):
        assert iv.enumerate_squarefull(0, 100) == [
            1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100,
        ]

    def test_singletons(self):
        assert iv.enumerate_squarefull(8, 9) == [9]
        assert iv.enumerate_squarefull(35, 36) == [36]

    def test_matches_indicator(self, sieve_1e6, rng):
        for _ in range(8):
            lo = int(rng.integers(0, 9 * 10**5))
            hi = lo + int(rng.integers(1, 10**5))
            got = iv.enumerate_squarefull(lo, hi)
            want = [n for n in range(lo + 1, hi + 1) if oracles.is_squarefull(n, sieve_1e6)]
            assert got == want

    def test_guards(self):
        for fn in (iv.enumerate_squarefull, iv.count_squarefull):
            with pytest.raises(DomainError):
                fn(10, 10)
            with pytest.raises(CapacityError):
                fn(0, 10**15 + 1)

    def test_count_matches_enumeration(self, rng):
        # lo > 0, windows with no member, and random windows up to 1e10
        windows = [(0, 1), (0, 100), (8, 9), (9, 15), (37, 48), (10**9, 11 * 10**8)]
        for _ in range(6):
            lo = int(rng.integers(0, 10**10))
            windows.append((lo, lo + int(rng.integers(1, 10**7))))
        for lo, hi in windows:
            assert iv.count_squarefull(lo, hi) == len(iv.enumerate_squarefull(lo, hi))
        assert iv.count_squarefull(9, 15) == 0
        assert iv.count_squarefull(0, 10**13) == 6_840_384


class TestCountTwoSquares:
    def test_examples(self):
        assert iv.count_two_squares(0, 20) == 12
        assert iv.count_two_squares(6, 7) == 0
        assert iv.count_two_squares(0, 2) == 2

    def test_matches_indicator_sum(self, sieve_1e5):
        want = sum(
            1 for n in range(1, 10**5 + 1) if oracles.is_sum_two_squares(n, sieve_1e5)
        )
        assert iv.count_two_squares(0, 10**5) == want
        assert iv._count_two_squares_sieve(0, 10**5) == want

    def test_offset_windows(self, sieve_1e6, rng):
        for _ in range(5):
            lo = int(rng.integers(0, 9 * 10**5))
            hi = lo + int(rng.integers(1, 5 * 10**4))
            want = sum(
                1 for n in range(lo + 1, hi + 1) if oracles.is_sum_two_squares(n, sieve_1e6)
            )
            assert iv._count_two_squares_sieve(lo, hi) == want
            assert iv.count_two_squares(lo, hi) == want

    def test_sublinear_matches_brute_force(self, rng):
        upto = np.cumsum(oracles.two_squares_table(2 * 10**6))
        for x in range(2001):
            assert iv._two_squares_upto(x) == upto[x], x
        for x in rng.integers(2001, 2 * 10**6 + 1, size=200).tolist():
            assert iv._two_squares_upto(x) == upto[x], x

    def test_sublinear_windows_match_sieve(self, rng):
        for near in (10**8, 10**9):
            for _ in range(2):
                lo = near + int(rng.integers(0, near))
                hi = lo + 10**6
                want = iv._count_two_squares_sieve(lo, hi)
                assert iv._two_squares_upto(hi) - iv._two_squares_upto(lo) == want, lo

    def test_sublinear_pinned_values(self):
        # both equal the sieve: over (0, 1e9], and summed over ten 1e9-wide
        # windows
        assert iv._two_squares_upto(10**9) == 173_229_058
        assert iv._two_squares_upto(10**10) == 1_637_624_156

    def test_paths_agree_across_the_crossover(self):
        # the widest window at lo = 1e8 that the sieve counts, and the next
        lo, sieved, sublinear = 10**8, 1, 10**9
        while sublinear - sieved > 1:
            mid = (sieved + sublinear) // 2
            if iv._sublinear_is_faster(lo, lo + mid):
                sublinear = mid
            else:
                sieved = mid
        assert 10**5 < sieved < 10**7
        for width in (sieved, sublinear):
            want = iv._count_two_squares_sieve(lo, lo + width)
            assert iv._two_squares_upto(lo + width) - iv._two_squares_upto(lo) == want
            assert iv.count_two_squares(lo, lo + width) == want

    def test_width_guard(self, monkeypatch):
        # twice the sieve's width guard, counted by the sublinear path: the
        # sieve over (1e9, 2e9] gives 167,184,040 more than B(1e9); the
        # window engine still refuses that width
        assert iv.count_two_squares(0, 2 * 10**9) == 173_229_058 + 167_184_040
        with pytest.raises(CapacityError):
            iv.ddt_mean(2 * 10**9)
        with pytest.raises(CapacityError):
            iv.weighted_fn_mean("two_squares", iv.IntervalSpec(x=15 * 10**8, theta=1.0, kappa1=1.0))
        # above the sublinear path's hi guard a window wider than 1e9 is
        # refused, and a narrower one is sieved
        with pytest.raises(CapacityError):
            iv.count_two_squares(10**13, 10**13 + 2 * 10**9)
        lo = 2 * 10**13
        want = iv._count_two_squares_sieve(lo, lo + 1000)
        monkeypatch.setattr(iv, "_two_squares_upto", None)
        assert iv.count_two_squares(lo, lo + 1000) == want
        with pytest.raises(CapacityError):
            iv.count_two_squares(0, 10**15 + 1)

    def test_masks_match_trial_division(self, monkeypatch):
        # n is a sum of two squares iff every prime p = 3 (mod 4) divides it
        # to an even power; trial division by the primes up to sqrt(hi)
        # leaves a cofactor that is 1 or a prime
        for lo, hi in ((0, 3000), (10**11 + 12345, 10**11 + 17345)):
            primes = ar.primes_upto(math.isqrt(hi))
            want = []
            for n in range(lo + 1, hi + 1):
                ok = True
                for p in primes[n % primes == 0].tolist():
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    ok &= p % 4 != 3 or e % 2 == 0
                want.append(ok and n % 4 != 3)
            monkeypatch.setattr(iv, "_CHUNK", 997)
            got = list(iv.two_squares_count_and_masks(lo, hi))
            assert [clo for clo, _ in got] == list(range(lo, hi, 997))
            assert np.array_equal(np.concatenate([mask for _, mask in got]), want), lo

    def test_count_independent_of_worker_count(self, monkeypatch):
        lo, hi = 10**6, 10**6 + 3 * 2**20 + 5  # four chunks of 2^20
        counts = []
        for workers in (1, 2):
            monkeypatch.setattr(iv, "_worker_count", lambda: workers)
            counts.append(iv._count_two_squares_sieve(lo, hi))
        assert counts[0] == counts[1] > 0

    def test_one_worker_while_other_threads_run(self):
        assert iv._worker_count() >= 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert iv._worker_count() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_runs_inside_a_daemonic_worker(self):
        # a multiprocessing.Pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(iv._count_two_squares_sieve, (0, 2 * 2**20))
        assert got == iv._count_two_squares_sieve(0, 2 * 2**20)


class TestIntervalSpec:
    def test_window_shapes(self):
        # kappa1=2: window (x, x + sqrt(x) y]; kappa1=1: (x, x+y]
        s2 = iv.IntervalSpec(x=10**6, theta=0.4, kappa1=2.0)
        assert s2.hi == int(10**6 + 10**3 * (10**6) ** 0.4)
        s1 = iv.IntervalSpec(x=10**6, theta=0.5, kappa1=1.0)
        assert s1.hi == 10**6 + 10**3

    def test_validation(self):
        with pytest.raises(DomainError):
            iv.IntervalSpec(x=2, theta=0.5, kappa1=1.0)
        with pytest.raises(DomainError):
            iv.IntervalSpec(x=100, theta=0.9, kappa1=2.0)  # end > 2x

    def test_y_prime(self):
        spec = iv.IntervalSpec(x=10**8, theta=0.45, kappa1=2.0)
        k = 2.0
        want = k * (spec.hi ** (1 / k) - spec.x ** (1 / k))
        assert spec.y_prime == pytest.approx(want, rel=1e-12)


class TestDdtMean:
    def test_matches_per_n_oracle(self, sieve_1e6):
        # engine vs direct divisor_cdf summation, exact to rounding
        grid = iv.DEFAULT_T_GRID + (0.0, 1.0)
        for x in (47, 300, 1500):
            rep = iv.ddt_mean(x, grid)
            for i, t in enumerate(grid):
                direct = (
                    1.0
                    + sum(
                        float(oracles.divisor_cdf(n, t, sieve_1e6)) for n in range(2, x + 1)
                    )
                ) / x
                assert rep.empirical[i] == pytest.approx(direct, abs=1e-12), (x, t)

    def test_t_endpoints(self):
        rep = iv.ddt_mean(5000, (0.0, 0.5, 1.0))
        assert rep.empirical[2] == 1.0
        assert rep.predicted[2] == 1.0
        assert rep.predicted[1] == pytest.approx(0.5, abs=1e-15)

    def test_golden_x1e4(self):
        rep = iv.ddt_mean(10**4)
        # t = 0.25 entry, recorded from the direct-summation oracle run
        assert rep.t_grid[4] == 0.25
        assert rep.empirical[4] == pytest.approx(0.34557538596357346, abs=1e-12)

    def test_is_cdf(self):
        rep = iv.ddt_mean(20000)
        assert all(b >= a for a, b in zip(rep.empirical, rep.empirical[1:]))
        assert rep.empirical[-1] <= 1.0

    def test_records_schema(self):
        rep = iv.ddt_mean(1000)
        rows = rep.records()
        assert list(rows[0].keys()) == list(iv.RECORD_FIELDS)
        assert len(rows) == len(iv.DEFAULT_T_GRID)

    def test_guards(self):
        with pytest.raises(DomainError, match="empty"):
            iv.ddt_mean(10**6, ())
        with pytest.raises(CapacityError):
            iv.ddt_mean(10**9 + 1)


class TestMeanDivisorCdf:
    def test_chunk_boundaries_match_per_n_oracle(self, sieve_1e6, monkeypatch):
        # a chunk of 997 cuts the window into six chunks; the grid is unsorted,
        # repeats 0.5 and holds both endpoints
        lo, hi = 10**5 + 3, 10**5 + 5003
        grid = (0.9, 0.1, 0.5, 0.0, 1.0, 0.75, 0.25, 0.5, 0.55)
        monkeypatch.setattr(iv, "_CHUNK", 997)
        for two_squares in (False, True):
            count, sums = iv._mean_divisor_cdf(lo, hi, grid, two_squares)
            ns = [
                n for n in range(lo + 1, hi + 1)
                if not two_squares or oracles.is_sum_two_squares(n, sieve_1e6)
            ]
            assert count == len(ns)
            for i, t in enumerate(grid):
                direct = sum(float(oracles.divisor_cdf(n, t, sieve_1e6)) for n in ns)
                assert sums[i] / count == pytest.approx(direct / count, abs=1e-12), t

    def test_run_start_far_from_hint(self):
        # the guard band puts the d = 1 upper-half start at about
        # exp(1e-11 / (1 - t)); the hint n = 1 misses it by 22,000 at
        # t = 1 - 1e-12 and by more than 2*hi at t = 1 - 1e-13
        t = 1.0 - 1e-12
        want = next(k for k in itertools.count(1) if not ar.divisor_le_threshold(k, k, t))
        assert want > 20000
        hi = 10**12
        assert iv._run_starts(1, iv._columns((t,), hi), hi) == [want]
        assert iv._run_starts(1, iv._columns((1.0 - 1e-13,), hi), hi) == [None]

    def test_run_starts_match_run_start(self, rng):
        # against a scan of every k with d*k <= 2*hi; t = 0 and t = 1 put
        # every d > 1 past the limit; 0.3 is repeated
        grid = (0.0, 0.05, 0.3, 0.3, 0.5, 0.7, 0.95, 1.0)

        def scan(d, t, upper, hi):
            for k in range(1, 2 * hi // d + 1):
                le = ar.divisor_le_threshold(k if upper else d, d * k, t)
                if le != upper:
                    return k
            return None

        hi = 10**4
        columns = iv._columns(grid, hi)
        assert [i for i, *_ in columns] == [0, 1, 2, 3, 4, 7, 6, 5]
        skipped = 0
        for d in range(1, math.isqrt(hi) + 1):
            want = [scan(d, t, upper, hi) for _, t, upper, _ in columns]
            assert iv._run_starts(d, columns, hi) == want, (hi, d)
            skipped += sum(math.log(d) >= limit for *_, limit in columns)
        assert skipped > 600
        hi = 3 * 10**5 + 7
        columns = iv._columns(grid, hi)
        for d in [1] + sorted(rng.choice(np.arange(2, math.isqrt(hi) + 1), 40, replace=False).tolist()):
            want = [scan(d, t, upper, hi) for _, t, upper, _ in columns]
            assert iv._run_starts(d, columns, hi) == want, (hi, d)

    def test_narrow_window_matches_per_n_oracle(self, sieve_1e6):
        # the window is narrower than sqrt(hi) = 1000, so some d have no
        # multiple in it and get no run starts
        lo, hi = 10**6 - 300, 10**6
        grid = iv.DEFAULT_T_GRID + (0.0, 1.0)
        count, sums = iv._mean_divisor_cdf(lo, hi, grid)
        assert count == hi - lo
        for i, t in enumerate(grid):
            direct = sum(float(oracles.divisor_cdf(n, t, sieve_1e6)) for n in range(lo + 1, hi + 1))
            assert sums[i] / count == pytest.approx(direct / count, abs=1e-12), t

    def test_run_starts_only_for_divisors_with_multiples(self, monkeypatch):
        calls = 0
        run_starts = iv._run_starts

        def counting(*args):
            nonlocal calls
            calls += 1
            return run_starts(*args)

        monkeypatch.setattr(iv, "_run_starts", counting)
        spec = iv.IntervalSpec(x=10**10, theta=0.3, kappa1=1.0)
        iv.weighted_fn_mean("two_squares", spec)
        live = sum(1 for d in range(1, math.isqrt(spec.hi) + 1) if spec.lo // d < spec.hi // d)
        # a table for every d <= sqrt(hi) would take 100,000 calls, each
        # searching the 19 columns
        assert 0 < calls == live
        assert len(iv.DEFAULT_T_GRID) * live < 200_000

    def test_worker_error_reaches_caller(self, monkeypatch):
        # the forked workers inherit the patched _run_starts
        def failing(*args):
            raise DomainError("run starts failed")

        monkeypatch.setattr(iv, "_run_starts", failing)
        monkeypatch.setattr(iv, "_worker_count", lambda: 2)
        monkeypatch.setattr(iv, "_CHUNK", 1000)
        for two_squares in (False, True):
            with pytest.raises(DomainError, match="^run starts failed$") as err:
                iv._mean_divisor_cdf(0, 3000, (0.5,), two_squares)
            # raised in a worker process, not in this one
            assert type(err.value.__cause__).__name__ == "_RemoteTraceback"
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("two_squares", [False, True], ids=["dense", "masked"])
    def test_sums_independent_of_worker_count(self, monkeypatch, two_squares):
        # six chunks of 997, split into 1, 2 and 3 worker sub-ranges
        lo, hi = 10**5 + 3, 10**5 + 5003
        grid = iv.DEFAULT_T_GRID + (0.0, 0.5, 1.0)
        monkeypatch.setattr(iv, "_CHUNK", 997)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(iv, "_worker_count", lambda: workers)
            runs.append(iv._mean_divisor_cdf(lo, hi, grid, two_squares))
        (count, sums), *others = runs
        for other_count, other_sums in others:
            assert other_count == count
            assert np.array_equal(other_sums, sums)

    def test_exact_terms_keep_the_exact_sum(self, rng):
        # signed floats over 120 binary orders of magnitude, with cancellation
        for size in (0, 1, 5, 1000):
            xs = (rng.standard_normal(size) * 2.0 ** rng.integers(-60, 60, size)).tolist()
            xs += [-x for x in xs[: size // 3]]
            terms = iv._exact_terms(list(xs))
            assert len(terms) <= 4
            assert sum(map(Fraction, terms), Fraction(0)) == sum(map(Fraction, xs), Fraction(0))
            ys = [1e-30, 3.0, -2.0**70]
            assert math.fsum(terms + ys) == math.fsum(xs + ys)

    def test_peak_memory_independent_of_grid(self):
        # three chunks of 2^20, scanned in this process because tracemalloc
        # cannot see into the worker processes of _mean_divisor_cdf; a per-n
        # count matrix over the 19 grid points and its float cumsum peaked at
        # 290 MiB
        tracemalloc.start()
        try:
            _, partials = iv._window_partials(0, 3 * 2**20, 3 * 2**20, iv.DEFAULT_T_GRID, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # a column's run sums (up to 3,033 here) are compressed to a few
        # exact terms after every chunk
        assert max(map(len, partials)) <= 4

    def test_sums_within_rounding_of_exact(self, sieve_1e6, monkeypatch):
        # exact rational sums of F_n(t): the share of divisors with
        # log d <= t log n + guard, the test of arith.divisor_le_threshold,
        # counted by bisection over the sorted divisors' logs
        lo, hi = 10**5, 12 * 10**4
        grid = iv.DEFAULT_T_GRID + (0.0, 0.5, 1.0)
        by_tau = [Counter() for _ in grid]
        for n in range(lo + 1, hi + 1):
            ds = oracles.divisors(n, sieve_1e6)
            logs = [math.log(d) for d in ds]
            for i, t in enumerate(grid):
                k = bisect.bisect_right(logs, t * math.log(n) + ar._THRESHOLD_GUARD)
                if n <= lo + 100:
                    assert Fraction(k, len(ds)) == oracles.divisor_cdf(n, t, sieve_1e6)
                by_tau[i][len(ds)] += k
        exact = [sum(Fraction(k, tau) for tau, k in c.items()) for c in by_tau]
        for chunk in (iv._CHUNK, 997):
            monkeypatch.setattr(iv, "_CHUNK", chunk)
            count, sums = iv._mean_divisor_cdf(lo, hi, grid)
            assert count == hi - lo
            for s, e, t in zip(sums, exact, grid):
                assert abs(Fraction(float(s)) - e) <= Fraction(1e-15) * count, (chunk, t)


class TestWeightedMeans:
    def test_two_squares_count_matches_count_two_squares(self, monkeypatch):
        # chunks of 997 cut the window (1e5, 1e5 + 5623] into six
        spec = iv.IntervalSpec(x=10**5, theta=0.75, kappa1=1.0)
        monkeypatch.setattr(iv, "_CHUNK", 997)
        assert (spec.hi - spec.lo) // iv._CHUNK >= 5
        want = iv.count_two_squares(spec.lo, spec.hi)
        for workers in (1, 2, 3):
            monkeypatch.setattr(iv, "_worker_count", lambda: workers)
            assert iv.weighted_fn_mean("two_squares", spec).count == want, workers

    def test_matches_brute_force(self, sieve_1e6):
        grid = iv.DEFAULT_T_GRID

        def brute(indicator, lo, hi):
            tot = np.zeros(len(grid))
            cnt = 0
            for n in range(lo + 1, hi + 1):
                ok = (
                    oracles.is_squarefull(n, sieve_1e6)
                    if indicator == "squarefull"
                    else oracles.is_sum_two_squares(n, sieve_1e6)
                )
                if not ok:
                    continue
                cnt += 1
                for i, t in enumerate(grid):
                    tot[i] += float(oracles.divisor_cdf(n, t, sieve_1e6))
            return cnt, tot / cnt

        spec = iv.IntervalSpec(x=10**5, theta=0.75, kappa1=1.0)
        rep = iv.weighted_fn_mean("two_squares", spec, grid)
        cnt, emp = brute("two_squares", spec.lo, spec.hi)
        assert rep.count == cnt
        np.testing.assert_allclose(rep.empirical, emp, atol=1e-12)

        spec = iv.IntervalSpec(x=2 * 10**4, theta=0.49, kappa1=2.0)
        rep = iv.weighted_fn_mean("squarefull", spec, grid)
        cnt, emp = brute("squarefull", spec.lo, spec.hi)
        assert rep.count == cnt
        np.testing.assert_allclose(rep.empirical, emp, atol=1e-12)

    def test_squarefull_mean_matches_scalar_loop(self):
        spec = iv.IntervalSpec(x=10**6, theta=0.5, kappa1=2.0)
        ts = iv.DEFAULT_T_GRID + (0.0, 1.0)
        count, sums = iv._squarefull_sums(spec.lo, spec.hi, ts)
        members = iv.enumerate_squarefull(spec.lo, spec.hi)
        want = np.zeros(len(ts))
        for n in members:
            logs = np.sort(oracles.divisor_logs(trial_factor(n)))
            for i, t in enumerate(ts):
                cut = t * math.log(n) + ar._THRESHOLD_GUARD
                want[i] += np.searchsorted(logs, cut, side="right") / logs.size
        assert count == len(members) > 500
        assert np.array_equal(sums, want)

    def test_squarefull_blocks_match_scalar_loop(self, monkeypatch):
        # 615 blocks of at most 7 members, the running sums carried across
        monkeypatch.setattr(iv, "_SQUAREFULL_BLOCK", 7)
        spec = iv.IntervalSpec(x=10**12, theta=0.3, kappa1=2.0)
        ts = iv.DEFAULT_T_GRID + (0.0, 0.5, 1.0)
        count, sums = iv._squarefull_sums(spec.lo, spec.hi, ts)
        want_count, want = squarefull_scalar_sums(spec.lo, spec.hi, ts)
        assert count == want_count > 4000
        assert np.array_equal(sums, want)
        # n = 1 has no prime: its one divisor log is 0.0
        count, sums = iv._squarefull_sums(0, 5000, ts)
        want_count, want = squarefull_scalar_sums(0, 5000, ts)
        assert count == want_count
        assert np.array_equal(sums, want)

    def test_shape_divisor_logs_are_divisor_logs(self, rng):
        primes = ar.primes_upto(10**4)
        for exps in ((2,), (3, 2), (2, 5, 4), (4, 3, 2, 7), (2, 2, 3, 2, 2, 3)):
            P = np.sort(rng.choice(primes, size=(9, len(exps)), replace=True), axis=1)
            P = P[(np.diff(P, axis=1) > 0).all(axis=1)]
            L = np.array([[math.log(p) for p in row] for row in P.tolist()])
            got = iv._shape_divisor_logs(L, exps)
            for row, logs in zip(P.tolist(), got):
                want = oracles.divisor_logs(list(zip(row, exps)))
                assert np.array_equal(np.sort(logs), np.sort(want)), (row, exps)

    def test_squarefull_shared_leftover_prime(self):
        # the one member q^5 = q^2 * q^3 has a = b = q above the trial bound
        # sqrt(q), so both leftovers are q, with exponent 2 + 3
        q = 997
        ts = iv.DEFAULT_T_GRID
        count, sums = iv._squarefull_sums(q**5 - 1, q**5, ts)
        # divisors q^j with j <= 5t, of 6
        want = [(1 + j) / 6 for j in (0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)]
        assert (count, sums.tolist()) == (1, want)
        assert np.array_equal(sums, squarefull_scalar_sums(q**5 - 1, q**5, ts)[1])

    def test_squarefull_mean_memory_independent_of_sqrt_hi(self):
        # a smallest-prime-factor table up to sqrt(hi) = 1e7 peaked at 91 MiB
        spec = iv.IntervalSpec(x=10**14, theta=0.2, kappa1=2.0)
        tracemalloc.start()
        try:
            count, _ = iv._squarefull_sums(spec.lo, spec.hi, iv.DEFAULT_T_GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 666
        assert peak <= 8 * 2**20

    def test_trivial_t_one(self):
        spec = iv.IntervalSpec(x=10**5, theta=0.8, kappa1=1.0)
        rep = iv.weighted_fn_mean("two_squares", spec, (0.5, 1.0))
        assert rep.empirical[1] == 1.0
        assert rep.predicted[1] == 1.0
        assert rep.predicted[0] == pytest.approx(0.5, abs=1e-12)

    def test_empty_interval(self):
        # (128, 139] contains no square-full number (next after 128 is 144)
        spec = iv.IntervalSpec(x=128, theta=0.01, kappa1=2.0)
        assert spec.hi < 144
        with pytest.raises(EmptyIntervalError):
            iv.weighted_fn_mean("squarefull", spec, (0.5,))

    def test_empty_t_grid(self):
        for indicator, theta, k1 in (
            ("two_squares", 0.8, 1.0),
            ("squarefull", 0.45, 2.0),
        ):
            spec = iv.IntervalSpec(x=10**6, theta=theta, kappa1=k1)
            with pytest.raises(DomainError, match="empty"):
                iv.weighted_fn_mean(indicator, spec, ())

    def test_width_guard(self):
        # checked before the window is split: each of two halves would pass it
        spec = iv.IntervalSpec(x=15 * 10**8, theta=1.0, kappa1=1.0)
        with pytest.raises(CapacityError):
            iv.weighted_fn_mean("two_squares", spec, (0.5,))

    def test_unknown_indicator(self):
        spec = iv.IntervalSpec(x=1000, theta=0.5, kappa1=1.0)
        with pytest.raises(DomainError):
            iv.weighted_fn_mean("prime", spec, (0.5,))

    def test_weighted_curves_are_cdfs(self):
        for indicator, theta, k1 in (
            ("two_squares", 0.8, 1.0),
            ("squarefull", 0.45, 2.0),
        ):
            spec = iv.IntervalSpec(x=10**5, theta=theta, kappa1=k1)
            rep = iv.weighted_fn_mean(indicator, spec)
            assert all(b >= a for a, b in zip(rep.empirical, rep.empirical[1:]))
            assert rep.empirical[-1] <= 1.0

    def test_predictions_use_beta_law(self):
        spec = iv.IntervalSpec(x=10**5, theta=0.8, kappa1=1.0)
        rep = iv.weighted_fn_mean("two_squares", spec, (0.3, 0.6))
        assert rep.predicted[0] == pytest.approx(
            sf.reg_inc_beta(0.3, 0.25, 0.25), abs=1e-14
        )
        spec = iv.IntervalSpec(x=10**5, theta=0.45, kappa1=2.0)
        rep = iv.weighted_fn_mean("squarefull", spec, (0.3, 0.6))
        assert rep.predicted[0] == pytest.approx(squarefull_law_oracle(0.3), abs=1e-12)
        assert rep.predicted[1] == pytest.approx(squarefull_law_oracle(0.6), abs=1e-12)


class TestSquarefullLaw:
    G = staticmethod(iv.squarefull_divisor_law)

    def test_matches_oracle_on_default_grid(self):
        worst = max(
            abs(self.G(t) - squarefull_law_oracle(t)) for t in iv.DEFAULT_T_GRID
        )
        assert worst <= 1e-10
        # mpmath.quad at 30 digits over the same two substituted halves
        assert self.G(0.3) == pytest.approx(0.27232623048798289, abs=1e-13)

    def test_symmetry_and_fixed_points(self):
        assert self.G(0.0) == 0.0
        assert self.G(0.5) == 0.5
        assert self.G(1.0) == 1.0
        for t in np.linspace(0.0, 1.0, 41):
            assert self.G(t) + self.G(1.0 - t) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        vals = [self.G(t) for t in np.linspace(0.0, 1.0, 201)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            self.G(-0.01)
        with pytest.raises(DomainError):
            self.G(1.01)

    def test_dirichlet_sample(self):
        n = 200_000
        _, v, w = np.random.default_rng(1807).dirichlet((1 / 3, 1 / 3, 1 / 3), n).T
        s = v / 2 + w
        for t in iv.DEFAULT_T_GRID:
            g = self.G(t)
            assert abs((s <= t).mean() - g) <= 5 * math.sqrt(g * (1 - g) / n), t

    def test_fast_on_default_grid(self):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for t in iv.DEFAULT_T_GRID:
                self.G(t)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05
