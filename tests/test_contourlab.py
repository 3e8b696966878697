import dataclasses
import functools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from sdlab import arith as ar
from sdlab import cli
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
        # the left column and the bottom and top rows of the 90 x 1734 grid,
        # 1,914 points in one batch; the right column, at sigma >= 2, lies
        # under the triangle bound (the full grid is 90 batches, 156,060
        # points)
        assert sizes == [1914]

    @pytest.mark.parametrize("name", ["zl4", "kappa23"])
    def test_dropped_column_lies_under_the_triangle_bound(self, zl_spec, name):
        # the sigma >= 2/kappa_1 column that frak_m no longer samples, on
        # its grids at T = 1600 for three values of varsigma
        spec = zl_spec if name == "zl4" else sd.SeriesSpec(
            kappa=KappaVector((2.0, 3.0)), z=(1 + 0j, 1 + 0j), w=(0j, 0j),
            chis=(None, None), name="kappa23",
        )
        k1 = spec.kappa1
        T, density = 1600.0, 8
        lt = math.log(T)
        tail = math.prod(sf.zeta_complex(2.0 * k / k1).real ** 2 for k in spec.kappa.kappa)
        taus = np.arange(1.0, T + lt / k1 / density, lt / k1 / density)
        taus = taus[taus <= T]
        for varsigma in (1.0 / (2.0 * k1), 0.8 / k1, 1.5 / k1):
            step = 1.0 / (k1 * lt) / density
            sig = np.arange(varsigma, 2.0 / k1 + step, step)
            assert sig[-1] >= 2.0 / k1
            vals = np.ones(taus.size, dtype=np.complex128)
            for k in spec.kappa.kappa:
                vals = vals * sf.zeta_many(k * (sig[-1] + 1j * taus), cl._SCAN_TOL)
            assert float(np.max(np.abs(vals) ** 2)) < tail

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

    def test_high_rows_wind(self, zl_spec, grid200):
        # epsilon = 0.2 puts row 2 (sigma = 0.877) above 1 - epsilon, where
        # the contour keeps a box width of room; it is classified by winding
        # like the rows below it, and N_j (capped at 2000) is only reported
        grid = cl.build_grid(
            cl.ContourConfig(T=200.0, C0=0.1, epsilon=0.2, nj_cap=2000),
            zl_spec,
        )
        cl.classify_boxes(grid)
        assert grid.J_T == 2
        assert [grid.regime_low(j) for j in range(3)] == [True, True, False]
        assert grid.N_j[2] == 2000
        assert (grid.windings[2] == 0).all()
        assert (grid.classes[2] == 0).all()
        assert np.array_equal(grid.windings[:2], grid200.windings)
        assert np.array_equal(grid.classes[:2], grid200.classes)

    def test_dirichlet_poly_is_the_direct_sum(self, zl_spec, rng):
        # two rows of truncated-inverse coefficients, zeros among them,
        # chosen per point
        m = ar.dirichlet_inverse(ar.tau_chi_coeffs(2000, zl_spec.kappa, zl_spec.chis)).values
        assert (m[1:] == 0).any()
        pts = (0.9 + rng.random(16)) + 1j * rng.uniform(1.0, 200.0, 16)
        want = oracles.dirichlet_poly(pts, m[1:])
        want[1::2] = oracles.dirichlet_poly(pts[1::2], 2 * m[1:])
        per_row = cl._dirichlet_poly(pts, np.stack([m, 2 * m]), np.arange(16) % 2)
        assert np.array_equal(per_row.view(np.uint64), want.view(np.uint64))  # as integers

    def test_stability_under_density_doubling(self, zl_spec, grid200):
        g16 = cl.build_grid(
            cl.ContourConfig(T=200.0, grid_density=16), zl_spec
        )
        cl.classify_boxes(g16)
        frac = (g16.classes == grid200.classes).mean()
        assert frac >= 0.99

    def test_winding_number_unit(self):
        theta = 2 * math.pi * np.arange(64) / 64
        ring = 0.3 + 0.1j + 0.2 * np.exp(1j * theta)
        steps = oracles.phase_steps(ring - (0.3 + 0.1j))
        assert steps.sum() / (2 * math.pi) == pytest.approx(1.0)
        assert np.abs(steps).max() == pytest.approx(2 * math.pi / 64)
        assert oracles.phase_steps(ring - (2.0 + 0j)).sum() == pytest.approx(0.0, abs=1e-12)
        assert oracles.settled_winding(ring - (0.3 + 0.1j)) == 1
        assert oracles.settled_winding(ring - (2.0 + 0j)) == 0

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
        m = ar.dirichlet_inverse(coeffs)
        assert m[1] == 1 and m[6] == 1 and m[4] == 0 and m[30] == -1

    def test_doubled_ring_keeps_the_old_samples(self, grid200):
        rect = (grid200.sigma[0], grid200.sigma[1], grid200.tau[5], grid200.tau[6])
        for n in (32, 64, 128, 256):
            old = oracles.rect_boundary(*rect, np.linspace(0.0, 1.0, n, endpoint=False))
            new = oracles.rect_boundary(*rect, np.linspace(0.0, 1.0, 2 * n, endpoint=False))
            assert np.array_equal(new[:, 0::2], old)
            odd = np.linspace(0.0, 1.0, 2 * n, endpoint=False)[1::2]
            assert np.array_equal(oracles.rect_boundary(*rect, odd), new[:, 1::2])

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
                    vals = cl.zl_product_many(oracles.rect_boundary(*rect, f).reshape(-1), g.spec)
                    wind = oracles.settled_winding(vals)
                    if wind is not None:
                        break
                assert g.windings[j, k] == wind

    def test_row_evaluation_cost(self, zl_spec, monkeypatch):
        # one call per attempt for both rows: the lattice's 39 horizontal
        # lines of 65 samples and 3 vertical lines of 1,217, each of the 117
        # corners once, then only the midpoints of the segments that turn the
        # phase by more than pi/2
        grid = cl.build_grid(cl.ContourConfig(T=200.0), zl_spec)
        sizes = []
        zl = cl.zl_product_many

        def counting(s, spec):
            sizes.append(np.asarray(s).size)
            return zl(s, spec)

        monkeypatch.setattr(cl, "zl_product_many", counting)
        cl.classify_boxes(grid)
        assert sizes == [39 * 65 + 3 * 1217 - 117, 261, 12]
        assert sum(sizes) == 6342

    def test_windings_equal_fresh_per_box_rings_t400(self, zl_spec):
        grid = cl.classify_boxes(cl.build_grid(cl.ContourConfig(T=400.0), zl_spec))
        self.test_windings_equal_fresh_per_box_rings(grid)

    def test_every_sample_is_a_whole_ring_sample(self, grid200, monkeypatch):
        # attempt r evaluates only points of the lattice edges cut into
        # 32 * 2^r segments, r <= 3, and no point twice over both rows
        g = grid200
        x, y = _lattice_lines(g, g.J_T + 1)
        calls = []
        zl = cl.zl_product_many

        def spy(s, spec):
            calls.append(set(np.asarray(s).tolist()))
            return zl(s, spec)

        monkeypatch.setattr(cl, "zl_product_many", spy)
        assert cl._lattice_windings(g, g.J_T + 1).tolist() == g.windings.tolist()
        assert len(calls) == 3
        for r, pts in enumerate(calls):
            f = np.linspace(0.0, 1.0, 32 * 2**r + 1)[:-1]
            edges = set(np.concatenate([
                x[:, None] + 1j * y[None, :],
                (x[:-1, None] + np.diff(x)[:, None] * f)[None] + 1j * y[:, None, None],
                x[:, None, None] + 1j * (y[:-1, None] + np.diff(y)[:, None] * f)[None],
            ], axis=None).tolist())
            assert pts <= edges
        assert sum(map(len, calls)) == len(set.union(*calls))

    def test_planted_zero_refines_only_its_segments(self, grid200, monkeypatch):
        # f(s) = s - z0 with z0 inside box (0, 5), a tenth of a sample
        # spacing left of the lattice line that it shares with box (1, 5) and
        # 0.35 of the way along a segment: that segment turns the phase by
        # more than pi/2, and so do its halves next to z0 until the third
        # refinement.  Both boxes on the line are unsettled until then, and
        # both settle on the same three midpoints, each evaluated once.
        g = grid200
        x, y = _lattice_lines(g, 2)
        h = (y[6] - y[5]) / (4 * g.config.grid_density)
        z0 = complex(x[1] - 0.1 * h, y[5] + 16.35 * h)
        calls = []

        def planted(s, spec):
            calls.append(np.asarray(s).copy())
            return np.asarray(s) - z0

        monkeypatch.setattr(cl, "zl_product_many", planted)
        winds = cl._lattice_windings(g, 2)
        assert winds.tolist() == [[1 if (j, k) == (0, 5) else 0 for k in range(g.K_T + 1)] for j in range(2)]
        assert [c.size for c in calls] == [39 * 65 + 3 * 1217 - 117, 1, 1, 1]
        refined = np.concatenate(calls[1:])
        assert (refined.real == x[1]).all()
        assert ((refined.imag > y[5] + 16 * h) & (refined.imag < y[5] + 17 * h)).all()

    def test_closed_loops_sum_to_whole_turns(self, rng):
        # the phase steps of a closed loop telescope, so random nonzero
        # samples over twelve decades, about half their steps above pi/2,
        # sum to a whole number of turns
        for size in (3, 8, 64, 1024):
            wide = 0
            for _ in range(50):
                v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-6, 6, size)
                (_, _, _, big), sums, _ = cl._lattice_turns(np.append(v, v[0])[None], size)
                turns = sums[0, 0] / (2 * math.pi)
                assert abs(turns - round(turns)) < 1e-12
                wide += np.count_nonzero(big)
            assert wide > 10 * size

    def test_unclosed_lattice_raises(self, grid200, monkeypatch, rng):
        # vertical lines whose corners are not the horizontal lines' samples
        # (here turned by random phases) leave the box loops open
        turns = cl._lattice_turns

        def own_corners(vals, n):
            if len(vals) == 2:  # row 0's two vertical lines
                vals = vals.copy()
                vals[:, ::n] *= np.exp(1j * rng.uniform(-0.3, 0.3, vals[:, ::n].shape))
            return turns(vals, n)

        monkeypatch.setattr(cl, "_lattice_turns", own_corners)
        with pytest.raises(AccuracyError, match="off an integer"):
            cl._lattice_windings(grid200, 1)

    def test_boundary_zero_error_after_retries(self, grid200, monkeypatch):
        from sdlab.errors import BoundaryZeroError

        sizes = []

        def tiny(s, spec):
            sizes.append(np.asarray(s).size)
            return np.full(np.asarray(s).shape, 1e-12 + 0j)

        monkeypatch.setattr(cl, "zl_product_many", tiny)
        with pytest.raises(BoundaryZeroError):
            cl._lattice_windings(grid200, 1)
        # refinement keeps every sample, so no retry could clear this one:
        # one call, row 0's 39 horizontal lines of 33 samples and 2 vertical
        # lines of 1,217 without their 78 corners
        assert sizes == [39 * 33 + 2 * 1217 - 78]


def _lattice_lines(g, rows):
    """The lattice lines sigma_j - hs and tau_k - ht of the winding
    rectangles of the first rows, as _lattice_windings builds them."""
    x = g.sigma[: rows + 1] - 0.5 * (g.sigma[1] - g.sigma[0])
    y = g.tau - (g.tau[1] - g.tau[0]) / 1024.0
    return x, y


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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_grouped_sides_are_the_one_instance_bits(self, seed, monkeypatch):
        # the instances that sdlab bombieri --seed draws at the bench's sizes
        drawn = []
        monkeypatch.setattr(cl, "bombieri_check_many", lambda instances: drawn.extend(instances) or [])
        cli.run_bombieri(seed, 1000, 50, 10, 1.2)
        monkeypatch.undo()
        lhs, rhs = cl._bombieri_sides(drawn)
        want = np.array([oracles.bombieri_sides(pts, a) for pts, a in drawn])
        assert len(drawn) == 1000
        assert np.array_equal(lhs.view(np.uint64), want[:, 0].view(np.uint64))
        assert np.array_equal(rhs.view(np.uint64), want[:, 1].view(np.uint64))
        holds = (want[:, 0] <= want[:, 1] * (1.0 + 1e-12)).tolist()
        assert cl.bombieri_check_many(drawn) == holds == [True] * 1000

    def test_edge_instances_in_one_call(self):
        rng = np.random.default_rng(11)
        edge = [
            ([1.7 + 2j], [0.5 - 1j]),  # m = 1, n = 1
            ([1.3 + 4j, 1.9 - 7j], [0.0, 2.0, 0.0, 0.0, -1j]),  # zero a_n
            ([1.4 + 3j, 1.6 + 3j, 1.5 - 8j], rng.normal(size=7)),  # Im = 0 off the diagonal
            # pairs at |Im| in (99.9, 100]: the extended path
            ([1.25 + 49.97j, 1.3 - 49.99j, 1.8 + 49.95j], rng.normal(size=30) + 1j * rng.normal(size=30)),
            ([1.2 + 1j] * 10, [1.0] * 50),
            ([2.0 + 0j, 2.5 - 1e-3j], [0.0, 0.0]),
            ([1.6 - 2j], []),
        ]
        mixed = []
        for _ in range(30):
            n = int(rng.integers(1, 51))
            mixed.append(([complex(1.2 + rng.uniform(0, 1), rng.uniform(-50, 50))
                           for _ in range(int(rng.integers(1, 11)))],
                          rng.normal(size=n) + 1j * rng.normal(size=n)))
        instances = [x for pair in zip(edge, mixed) for x in pair] + mixed[len(edge):]
        pair = np.conj(np.array(edge[3][0]))[:, None] + np.array(edge[3][0])
        assert sf._em_plan(np.abs(pair.imag), 1e-12)[1].any()
        lhs, rhs = cl._bombieri_sides(instances)
        want = np.array([oracles.bombieri_sides(pts, a) for pts, a in instances])
        assert np.array_equal(lhs.view(np.uint64), want[:, 0].view(np.uint64))
        assert np.array_equal(rhs.view(np.uint64), want[:, 1].view(np.uint64))
        holds = (want[:, 0] <= want[:, 1] * (1.0 + 1e-12)).tolist()
        assert cl.bombieri_check_many(iter(instances)) == holds
        assert holds[10] and holds[12] and not want[[10, 12]].any()  # a = 0 and a = []

    def test_validation_before_any_zeta_work(self, monkeypatch):
        def never(s, tol=1e-12):
            raise AssertionError("zeta_many was called")

        monkeypatch.setattr(sf, "zeta_many", never)
        good = ([1.5 + 2j, 1.7 - 3j], [1.0, 2.0])
        with pytest.raises(DomainError, match="^need at least one point$"):
            cl.bombieri_check_many([good, ([], [1.0]), ([0.5 + 1j], [1.0])])
        # the first failing instance decides; min Re(conj(s)+s') = 0.5 + 0.5
        with pytest.raises(ConvergenceError, match=r"> 1\.1, got 1\.0$"):
            cl.bombieri_check_many([good, ([0.5 + 1j, 0.9 - 1j], [1.0]), ([], [1.0])])
        assert cl.bombieri_check_many([]) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_folded_pairs_are_the_direct_bits(self, seed, monkeypatch):
        # ordinates near +-50 put pair points at |Im| in (99.9, 100], on the
        # extended path, which is not folded; a repeated ordinate puts pair
        # points on the real axis off the diagonal
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(200):
            m = int(rng.integers(1, 11))
            t = rng.choice([-1.0, 1.0], m) * (50.0 - 0.05 * rng.random(m))
            t[: m // 3] = 100.0 * (rng.random(m // 3) - 0.5)
            t[-1] = t[0]
            pts = 1.2 + rng.random(m) + 1j * t
            pairs.append(np.conj(pts)[:, None] + pts[None, :])
        groups = [np.stack([p for p in pairs if len(p) == m]) for m in sorted({len(p) for p in pairs})]
        flat = np.concatenate([g.reshape(-1) for g in groups])
        extended = sf._em_plan(np.abs(flat.imag), 1e-12)[1]
        assert extended.any() and not extended.all()
        sizes = []
        zeta_many = sf.zeta_many

        def counting(s, tol=1e-12):
            sizes.append(np.asarray(s).size)
            return zeta_many(s, tol)

        monkeypatch.setattr(sf, "zeta_many", counting)
        got = cl._pair_zetas(groups)
        upper = sum(len(g) * g.shape[1] * (g.shape[1] + 1) // 2 for g in groups)
        assert len(sizes) == 1 and upper < sizes[0] < flat.size
        want = np.split(zeta_many(flat), np.cumsum([g.size for g in groups])[:-1])
        for b, g, w in zip(got, groups, want):  # as integers, so that -0.0 != 0.0
            assert b.shape == g.shape
            assert np.array_equal(b.reshape(-1).view(np.uint64), w.view(np.uint64))

    def test_fold_tests_pass_on_avx2_kernels(self):
        # numpy's AVX2 kernels in place of its AVX-512 ones, as on runners
        # without AVX-512; the variable changes nothing on such a machine
        here = pathlib.Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=str(here.parent / "src"),
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        tests = [f"{here / 'test_specfun.py'}::TestConjugateFold",
                 f"{here / 'test_contourlab.py'}::TestBombieri::test_folded_pairs_are_the_direct_bits",
                 f"{here / 'test_contourlab.py'}::TestBombieri::test_edge_instances_in_one_call"]
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                              env=env, cwd=here.parent, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert "6 passed" in proc.stdout

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            cl.bombieri_check_many([([0.5 + 1j], [1.0, 2.0])])
