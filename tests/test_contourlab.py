import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from sdlab import arith as ar
from sdlab import contourlab as cl
from sdlab import sdexpand as sd
from sdlab import specfun as sf
from sdlab.arith import KappaVector, quadratic_character
from sdlab.errors import (
    AccuracyError,
    ContourBlockedError,
    ConvergenceError,
    DomainError,
)


@pytest.fixture(scope="module")
def zl_spec(chi4_mod):
    return sd.SeriesSpec(
        kappa=KappaVector((1.0,)),
        z=(1 + 0j,),
        w=(1 + 0j,),
        chis=(chi4_mod,),
        name="zl4",
    )


@pytest.fixture(scope="module")
def chi4_mod():
    return quadratic_character(4)


@pytest.fixture(scope="module")
def grid200(zl_spec):
    grid = cl.build_grid(cl.ContourConfig(T=200.0), zl_spec)
    return cl.classify_boxes(grid)


@functools.lru_cache(maxsize=None)
def _full_grid_max(varsigma, T, kappa, density):
    """|prod zeta(kappa_i s)|^2 maximised over every node of the 2-D grid
    (one zeta batch per sigma column), floored by the triangle bound.  Cached
    by kappa: zeta L(chi_4) and pure zeta share the same zeta product."""
    k1 = kappa[0]
    lt = math.log(T)
    dsig = 1.0 / (k1 * lt) / density
    dtau = lt / k1 / density
    sig = np.arange(varsigma, max(2.0 / k1, varsigma) + dsig, dsig)
    taus = np.arange(1.0, T + dtau, dtau)
    taus = taus[taus <= T]
    best = 0.0
    for sg in sig:
        vals = np.ones(taus.size, dtype=np.complex128)
        for k in kappa:
            vals = vals * sf.zeta_many(k * (sg + 1j * taus), cl._SCAN_TOL)
        best = max(best, float(np.max(np.abs(vals) ** 2)))
    tail = 1.0
    for k in kappa:
        tail *= sf.zeta_complex(2.0 * k / k1).real ** 2
    return max(best, tail)


class TestFrakM:
    def test_triangle_bound_deep_right(self, zl_spec):
        # varsigma beyond the abscissa: value within the absolute-convergence
        # triangle bound
        got = cl.frak_m(1.1, 100.0, zl_spec, density=4)
        assert got <= sf.zeta_complex(1.1).real ** 2 + 1e-9

    def test_monotone_in_varsigma(self, zl_spec):
        a = cl.frak_m(0.80, 100.0, zl_spec, density=8)
        b = cl.frak_m(0.90, 100.0, zl_spec, density=8)
        c = cl.frak_m(1.00, 100.0, zl_spec, density=8)
        assert a >= b >= c

    def test_golden_and_dense_oracle(self, zl_spec):
        base = cl.frak_m(0.9, 100.0, zl_spec, density=8)
        dense = cl.frak_m(0.9, 100.0, zl_spec, density=32)
        assert base == pytest.approx(7.945199897981631, rel=1e-12)
        assert abs(base - dense) <= 0.05 * dense

    def test_domain(self, zl_spec):
        with pytest.raises(DomainError):
            cl.frak_m(0.3, 100.0, zl_spec)

    @pytest.mark.parametrize(
        "name, T, density",
        [
            (name, T, density)
            for name in ("zl4", "zeta", "kappa23")
            for T in (100.0, 400.0)
            for density in (8, 16)
            # kappa = (2, 3) samples zeta up to Im s = 3T on a grid twice as
            # tall; its T = 400 full-grid oracle alone takes about 50 s
            if not (name == "kappa23" and T == 400.0)
        ],
    )
    def test_ring_equals_full_grid_oracle(self, zl_spec, name, T, density):
        spec = {
            "zl4": zl_spec,
            "zeta": sd.SeriesSpec(
                kappa=KappaVector((1.0,)), z=(1 + 0j,), w=(0j,), chis=(None,),
                name="zeta",
            ),
            "kappa23": sd.SeriesSpec(
                kappa=KappaVector((2.0, 3.0)), z=(1 + 0j, 1 + 0j), w=(0j, 0j),
                chis=(None, None), name="kappa23",
            ),
        }[name]
        k1 = spec.kappa1
        for varsigma in (1.0 / (2.0 * k1), 0.8 / k1, 1.5 / k1):
            got = cl.frak_m(varsigma, T, spec, density)
            assert got == _full_grid_max(varsigma, T, spec.kappa.kappa, density)

    def test_ring_scan_cost(self, zl_spec, monkeypatch):
        sizes = []
        zeta_many = sf.zeta_many

        def counting(s, tol=1e-12):
            sizes.append(np.asarray(s).size)
            return zeta_many(s, tol)

        monkeypatch.setattr(sf, "zeta_many", counting)
        cl.frak_m(0.5, 1600.0, zl_spec, 8)
        # ring of the 90 x 1734 grid, 3,648 points in one batch (the full
        # grid is 90 batches, 156,060 points)
        assert sizes == [3648]

    @pytest.mark.xfail(
        strict=True, reason="frak_m is not converged in density (ROADMAP item 9)"
    )
    def test_converged_in_density(self, zl_spec):
        # the 5% agreement under density doubling, at the T = 1600 that
        # build_grid scans for T = 200: 100.02 at density 8, 114.47 at 16
        coarse = cl.frak_m(0.5, 1600.0, zl_spec, 8)
        fine = cl.frak_m(0.5, 1600.0, zl_spec, 16)
        assert abs(fine - coarse) <= 0.05 * max(fine, coarse)


class TestBuildGrid:
    def test_formulas_t100(self, zl_spec):
        grid = cl.build_grid(cl.ContourConfig(T=100.0), zl_spec)
        lt = math.log(100.0)
        want_delta = lt ** (-2 / 3) * math.log(lt) ** (-1 / 3)
        assert grid.delta_T == pytest.approx(want_delta, rel=1e-14)
        assert grid.J_T == math.floor((0.5 - want_delta) * lt)
        assert grid.K_T == math.floor(100.0 / lt)
        np.testing.assert_allclose(
            grid.sigma, (0.5 + np.arange(grid.J_T + 2) / lt), rtol=1e-14
        )
        np.testing.assert_allclose(
            grid.tau, 1.0 + np.arange(grid.K_T + 2) * lt, rtol=1e-14
        )

    def test_sigma_index_bound(self, grid200):
        lt = math.log(200.0)
        assert grid200.sigma[grid200.J_T + 1] <= (1 - grid200.delta_T) + 1.0 / lt + 1e-12

    def test_builds_below_200_without_warning(self, zl_spec):
        # the caveat below T = 200 is ContourConfig's docstring, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = cl.build_grid(cl.ContourConfig(T=120.0), zl_spec)
        assert isinstance(grid, cl.BoxGrid)

    def test_nj_capped_at_desk_scale(self, grid200):
        assert grid200.nj_capped.all()
        assert (grid200.N_j == grid200.config.nj_cap).all()

    def test_config_validation(self):
        with pytest.raises(DomainError):
            cl.ContourConfig(T=40.0)
        with pytest.raises(DomainError):
            cl.ContourConfig(T=200.0, epsilon=0.3)
        with pytest.raises(DomainError):
            cl.ContourConfig(T=200.0, grid_density=2)


class TestClassification:
    def test_box_with_first_zero_is_marked(self, grid200):
        # tau = 14.1347 (zeta) and 12.988, 16.343 (L) lie in box k=2 of row 0
        lt = math.log(200.0)
        k = math.floor((14.134725 - 1.0) / lt)
        assert grid200.classes[0, k] == 1
        assert grid200.windings[0, k] == 3

    def test_critical_line_counts_match_reference_zeros(self, grid200):
        # zeros of zeta and L(s, chi4) with ordinates in each box's winding
        # ring (tau_k - h, tau_{k+1} - h), h = log(200)/1024, counted from
        # mpmath zero tables: 80 of zeta and 125 of L(s, chi4)
        want = [1, 1, 3, 3, 3, 4, 4, 5, 4, 5, 4, 5, 6, 5, 6, 5, 5, 7, 5, 6,
                6, 6, 6, 7, 5, 8, 6, 6, 7, 6, 6, 8, 6, 7, 7, 6, 8, 7]
        assert sum(want) == 205
        assert grid200.windings[0].tolist() == want

    def test_all_classified(self, grid200):
        assert (grid200.classes >= 0).all()

    def test_windings_are_nonnegative(self, grid200):
        assert (grid200.windings[0] >= 0).all()

    def test_row1_empty(self, grid200):
        # no zeros off the critical line at these heights
        assert (grid200.classes[1] == 0).all()

    def test_high_range_threshold(self, zl_spec):
        # epsilon = 0.2 puts row 2 (sigma = 0.877) above 1 - epsilon, so it is
        # classified by the sampled minimum of |zeta L M_N| with N = 2000
        grid = cl.build_grid(
            cl.ContourConfig(T=200.0, C0=0.1, epsilon=0.2, nj_cap=2000),
            zl_spec,
        )
        cl.classify_boxes(grid)
        assert grid.J_T == 2
        assert [grid.regime_low(j) for j in range(3)] == [True, True, False]
        assert grid.N_j[2] == 2000
        mins = grid.sampled_min[2]
        assert np.isfinite(mins).all()
        assert np.isnan(grid.sampled_min[:2]).all()
        assert np.array_equal(grid.classes[2], (mins < 0.5).astype(np.int8))
        assert (grid.windings[2] == -1).all()
        m = cl.m_series_coeffs(zl_spec, 2000).values
        for k in (0, grid.K_T):
            assert cl._classify_high_box(grid, 2, k, m) == mins[k]

    def test_stability_under_density_doubling(self, zl_spec, grid200):
        g16 = cl.build_grid(
            cl.ContourConfig(T=200.0, grid_density=16), zl_spec
        )
        cl.classify_boxes(g16)
        frac = (g16.classes == grid200.classes).mean()
        assert frac >= 0.99

    def test_m_series_is_truncated_inverse(self, zl_spec, chi4_mod):
        m = cl.m_series_coeffs(zl_spec, 200)
        tau = ar.tau_chi_coeffs(200, KappaVector((1.0,)), (chi4_mod,))
        want = ar.dirichlet_inverse(tau)
        assert np.array_equal(m.values, want.values)

    def test_winding_number_unit(self):
        theta = 2 * math.pi * np.arange(64) / 64
        ring = 0.3 + 0.1j + 0.2 * np.exp(1j * theta)
        steps = cl._phase_steps(ring - (0.3 + 0.1j))
        assert steps.sum() / (2 * math.pi) == pytest.approx(1.0)
        assert np.abs(steps).max() == pytest.approx(2 * math.pi / 64)
        assert cl._phase_steps(ring - (2.0 + 0j)).sum() == pytest.approx(0.0, abs=1e-12)
        assert cl._settled_winding(ring - (0.3 + 0.1j)) == 1
        assert cl._settled_winding(ring - (2.0 + 0j)) == 0

    def test_pure_zeta_spec_first_zero_box(self):
        # no L factors: only the zeta zeros mark boxes; at T=100 the single
        # box row has its first mark where 14.1347 lands
        spec = sd.SeriesSpec(
            kappa=KappaVector((1.0,)), z=(1 + 0j,), w=(0j,), chis=(None,), name="zeta"
        )
        grid = cl.build_grid(cl.ContourConfig(T=100.0), spec)
        cl.classify_boxes(grid)
        lt = math.log(100.0)
        k_first = math.floor((14.134725 - 1.0) / lt)
        assert grid.J_T == 0
        assert grid.classes[0, k_first] == 1
        assert grid.windings[0, k_first] == 1
        assert (grid.classes[0, :k_first] == 0).all()
        # pure zeta product: all-ones coefficients, Moebius inverse
        coeffs = ar.tau_chi_coeffs(50, spec.kappa, spec.chis)
        assert all(coeffs[n] == 1 for n in range(1, 51))
        m = cl.m_series_coeffs(spec, 50)
        assert m[1] == 1 and m[6] == 1 and m[4] == 0 and m[30] == -1

    def test_doubled_ring_keeps_the_old_samples(self, grid200):
        rect = (grid200.sigma[0], grid200.sigma[1], grid200.tau[5], grid200.tau[6])
        for n in (32, 64, 128, 256):
            old = cl._rect_boundary(*rect, np.linspace(0.0, 1.0, n, endpoint=False))
            new = cl._rect_boundary(*rect, np.linspace(0.0, 1.0, 2 * n, endpoint=False))
            assert np.array_equal(new[:, 0::2], old)
            odd = np.linspace(0.0, 1.0, 2 * n, endpoint=False)[1::2]
            assert np.array_equal(cl._rect_boundary(*rect, odd), new[:, 1::2])

    def test_windings_equal_fresh_per_box_rings(self, grid200):
        # each box on its own, every refinement a whole new ring
        g = grid200
        for j in range(g.J_T + 1):
            hs = 0.5 * (g.sigma[j + 1] - g.sigma[j])
            for k in range(g.K_T + 1):
                ht = (g.tau[k + 1] - g.tau[k]) / 1024.0
                rect = (g.sigma[j] - hs, g.sigma[j + 1] - hs, g.tau[k] - ht, g.tau[k + 1] - ht)
                for per_side in (32, 64, 128, 256):
                    f = np.linspace(0.0, 1.0, per_side, endpoint=False)
                    vals = cl.zl_product_many(cl._rect_boundary(*rect, f).reshape(-1), g.spec)
                    wind = cl._settled_winding(vals)
                    if wind is not None:
                        break
                assert g.windings[j, k] == wind

    def test_row_evaluation_cost(self, zl_spec, monkeypatch):
        # one call per row and attempt: the 38 rings of 128 points of each
        # row, then only the midpoints of the segments that turn the phase by
        # more than pi/2 (or of every segment of a ring whose winding is not
        # near an integer)
        grid = cl.build_grid(cl.ContourConfig(T=200.0), zl_spec)
        sizes = []
        zl = cl.zl_product_many

        def counting(s, spec):
            sizes.append(np.asarray(s).size)
            return zl(s, spec)

        monkeypatch.setattr(cl, "zl_product_many", counting)
        cl.classify_boxes(grid)
        assert sizes == [38 * 128, 261, 12, 38 * 128, 14]
        assert sum(sizes) == 10015

    def test_every_sample_is_a_whole_ring_sample(self, grid200, monkeypatch):
        # attempt r of a row evaluates only samples of the boxes' whole rings
        # at 128 * 2^r points, r <= 3, and no sample twice
        g = grid200
        f = [np.linspace(0.0, 1.0, 128 * 2**r, endpoint=False) for r in range(4)]
        calls = []
        zl = cl.zl_product_many

        def spy(s, spec):
            calls.append(set(np.asarray(s).tolist()))
            return zl(s, spec)

        monkeypatch.setattr(cl, "zl_product_many", spy)
        attempts = []
        for j in range(g.J_T + 1):
            calls.clear()
            assert cl._classify_low_row(g, j, range(g.K_T + 1)) == g.windings[j].tolist()
            attempts.append(len(calls))
            for r, pts in enumerate(calls):
                rings = [cl._rect_boundary(*_winding_rect(g, j, k), f[r]) for k in range(g.K_T + 1)]
                assert pts <= set(np.concatenate(rings, axis=None).tolist())
            assert sum(map(len, calls)) == len(set.union(*calls))
        assert attempts == [3, 2]

    def test_planted_zero_refines_only_its_segments(self, grid200, monkeypatch):
        # f(s) = s - z0 with z0 just inside the right side of box (0, 5), at
        # a tenth of a sample spacing from it and 0.35 of the way along a
        # segment: that segment turns the phase by more than pi/2, and so do
        # its halves next to z0 until the third refinement
        g = grid200
        s_lo, s_hi, t_lo, t_hi = _winding_rect(g, 0, 5)
        h = (t_hi - t_lo) / (4 * g.config.grid_density)
        z0 = complex(s_hi - 0.1 * h, t_lo + 16.35 * h)
        calls = []

        def planted(s, spec):
            calls.append(np.asarray(s).copy())
            return np.asarray(s) - z0

        monkeypatch.setattr(cl, "zl_product_many", planted)
        winds = cl._classify_low_row(g, 0, range(g.K_T + 1))
        assert winds == [1 if k == 5 else 0 for k in range(g.K_T + 1)]
        assert [c.size for c in calls] == [38 * 128, 1, 1, 1]
        refined = np.concatenate(calls[1:])
        assert (refined.real == s_hi).all()
        assert ((refined.imag > t_lo + 16 * h) & (refined.imag < t_lo + 17 * h)).all()

    def test_boundary_zero_error_after_retries(self, grid200, monkeypatch):
        from sdlab.errors import BoundaryZeroError

        sizes = []

        def tiny(s, spec):
            sizes.append(np.asarray(s).size)
            return np.full(np.asarray(s).shape, 1e-12 + 0j)

        monkeypatch.setattr(cl, "zl_product_many", tiny)
        with pytest.raises(BoundaryZeroError):
            cl._classify_low_row(grid200, 0, [0])
        # refinement keeps every sample, so no retry could clear this one
        assert sizes == [128]


def _winding_rect(g, j, k):
    """The winding rectangle of box (j, k), as _classify_low_row builds it."""
    hs = 0.5 * (g.sigma[j + 1] - g.sigma[j])
    ht = (g.tau[k + 1] - g.tau[k]) / 1024.0
    return (g.sigma[j] - hs, g.sigma[j + 1] - hs, g.tau[k] - ht, g.tau[k + 1] - ht)


class TestContour:
    def test_degenerate_all_marked_level(self, grid200):
        poly = cl.build_contour(grid200)
        # every column has j_k = 0 at T=200, so a single vertical run
        assert len(poly.vertices) == 2
        sig = grid200.sigma[1] + grid200.config.epsilon ** 2
        assert poly.vertices[0] == pytest.approx(complex(sig, 0.0))
        assert poly.vertices[1].imag == pytest.approx(grid200.tau[-1])

    def test_all_clear_hugs_left_boundary(self, grid200):
        saved = grid200.classes.copy()
        try:
            grid200.classes[:] = 0
            poly = cl.build_contour(grid200)
            sig0 = grid200.sigma[0] + grid200.config.epsilon ** 2
            assert all(v.real == pytest.approx(sig0) for v in poly.vertices)
        finally:
            grid200.classes[:] = saved

    def test_single_marked_column_detour(self, grid200):
        saved = grid200.classes.copy()
        try:
            grid200.classes[:] = 0
            grid200.classes[0, 5] = 1
            poly = cl.build_contour(grid200)
            assert len(poly.vertices) == 6
            d_h = math.log(math.log(200.0))
            assert poly.vertices[1].imag == pytest.approx(grid200.tau[5] - d_h)
            assert poly.vertices[2].real == pytest.approx(
                grid200.sigma[1] + grid200.config.epsilon ** 2
            )
            assert poly.vertices[4].imag == pytest.approx(grid200.tau[6] + d_h)
            assert cl.contour_clear_of_marked(grid200, poly)
        finally:
            grid200.classes[:] = saved

    def test_polyline_through_marked_box_is_not_clear(self, grid200):
        saved = grid200.classes.copy()
        try:
            grid200.classes[:] = 0
            grid200.classes[0, 5] = 1
            sig = 0.5 * (grid200.sigma[0] + grid200.sigma[1])
            mid = complex(sig, 0.5 * (grid200.tau[5] + grid200.tau[6]))
            assert grid200.in_marked_region(mid, grid200.column_tops())
            # a vertical run through the middle of box (0, 5), and one beside it
            through = cl.ContourPolyline((complex(sig, grid200.tau[4]), complex(sig, grid200.tau[7])))
            assert not cl.contour_clear_of_marked(grid200, through)
            sig = 0.5 * (grid200.sigma[1] + grid200.sigma[2])
            beside = cl.ContourPolyline((complex(sig, grid200.tau[4]), complex(sig, grid200.tau[7])))
            assert cl.contour_clear_of_marked(grid200, beside)
        finally:
            grid200.classes[:] = saved

    def test_contour_avoids_marked_region(self, grid200):
        poly = cl.build_contour(grid200)
        assert cl.contour_clear_of_marked(grid200, poly)

    def test_blocked_column_raises(self, grid200):
        saved = grid200.classes.copy()
        try:
            grid200.classes[:, 7] = 1  # marked up to the top row
            with pytest.raises(ContourBlockedError) as err:
                cl.build_contour(grid200)
            assert err.value.column == 7
        finally:
            grid200.classes[:] = saved

    def test_full_mirror(self, grid200):
        poly = cl.build_contour(grid200)
        full = poly.full()
        ups = [v for v in full if v.imag > 0]
        downs = [v for v in full if v.imag < 0]
        assert len(ups) == len(downs)
        assert {v.conjugate() for v in ups} == set(downs)


class TestProp31:
    def test_finite_and_reproducible(self, grid200):
        poly = cl.build_contour(grid200)
        a = cl.check_prop31(poly, grid200)
        b = cl.check_prop31(poly, grid200)
        assert a == b
        assert math.isfinite(a["max_upper_logratio"])
        assert math.isfinite(a["max_lower_logratio"])

    def test_envelope_reduces_to_log_power_at_one(self, grid200):
        # at sigma = 1/kappa_1 the T-power vanishes: envelope gap is driven by
        # (log T)^{+-4} alone; verify the formula at that point
        lt = math.log(200.0)
        up = 136.0 * math.sqrt(2 * 0.05) * (1 - 1.0) * lt + 4 * math.log(lt)
        assert up == pytest.approx(4 * math.log(lt))

    def test_density_doubling_shifts_ratios_under_ten_percent(self, grid200):
        poly = cl.build_contour(grid200)
        base = cl.check_prop31(poly, grid200)
        fine = cl.check_prop31(
            poly, dataclasses.replace(grid200, config=cl.ContourConfig(T=200.0, grid_density=16))
        )
        for key in ("max_upper_logratio", "max_lower_logratio"):
            assert abs(fine[key] - base[key]) < 0.10 * abs(base[key])


class TestWCounts:
    def test_counts(self, grid200):
        out = cl.count_w_per_column(grid200)
        assert out["counts"][0] == int((grid200.classes[0] == 1).sum())
        assert all(c <= grid200.K_T + 1 for c in out["counts"])
        assert len(out["envelope"]) == grid200.J_T + 1

    def test_all_clear_grid(self, grid200):
        saved = grid200.classes.copy()
        try:
            grid200.classes[:] = 0
            out = cl.count_w_per_column(grid200)
            assert out["counts"] == [0] * (grid200.J_T + 1)
        finally:
            grid200.classes[:] = saved


class TestBombieri:
    def test_single_point_unit_vector(self):
        assert cl.bombieri_check_many([([2.0 + 3.0j], [1.0])]) == [True]

    def test_random_instances(self, rng):
        instances = []
        for _ in range(100):
            n = int(rng.integers(1, 51))
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            m = int(rng.integers(1, 11))
            pts = [
                complex(1.2 + rng.uniform(0, 1), rng.uniform(-50, 50)) for _ in range(m)
            ]
            instances.append((pts, a))
        assert cl.bombieri_check_many(instances) == [True] * 100

    def test_many_is_each_instance_alone(self, rng):
        instances = []
        for _ in range(40):
            a = rng.normal(size=int(rng.integers(1, 30))) + 0j
            pts = [complex(1.2 + rng.uniform(0, 1), rng.uniform(-50, 50))
                   for _ in range(int(rng.integers(1, 6)))]
            instances.append((pts, a))
        instances.append(([1.5 + 3j, 1.51 + 3j], [1.0, -50.0, 3.0]))
        got = cl.bombieri_check_many(instances)
        assert got == [cl.bombieri_check_many([instance])[0] for instance in instances]
        assert cl.bombieri_check_many([]) == []

    def test_scaling_invariance(self, rng):
        a = rng.normal(size=20) + 1j * rng.normal(size=20)
        pts = [1.5 + 4j, 1.3 - 2j, 2.0 + 30j]
        got = cl.bombieri_check_many([(pts, a), (pts, 137.0 * a)])
        assert got[0] == got[1]

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            cl.bombieri_check_many([([0.5 + 1j], [1.0, 2.0])])
