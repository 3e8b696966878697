"""Box partition of the critical strip, zero/small-value classification, the
zero-detour contour, and empirical envelope checks.

Desk-scale geometry: boxes are width 1/(kappa_1 log T) and height log T /
kappa_1.  Classification in the low range counts zeros of the zeta*L product
by the argument principle around a half-open-adjusted rectangle; in the high
range it thresholds the sampled minimum of |zeta L M_N|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import arith, specfun
from .errors import (
    AccuracyError,
    BoundaryZeroError,
    ContourBlockedError,
    ConvergenceError,
    DomainError,
)
from .sdexpand import SeriesSpec

__all__ = [
    "ContourConfig",
    "BoxGrid",
    "ContourPolyline",
    "frak_m",
    "build_grid",
    "classify_boxes",
    "build_contour",
    "check_prop31",
    "count_w_per_column",
    "bombieri_check_many",
    "zl_product_many",
    "m_series_coeffs",
    "contour_report",
]

# Euler-Maclaurin tolerance of every contour and frak_m evaluation; it sets
# the head length M and the extended-phase switch on the T=200 contour.
_SCAN_TOL = 1e-9


@dataclass(frozen=True)
class ContourConfig:
    """Free constants of the construction; the CLI echoes them into every report."""

    T: float
    epsilon: float = 0.05
    C0: float = 1.0
    Aprime: int = 10
    psi: float = 2.4
    eta: float = 9.0
    grid_density: int = 8
    nj_cap: int = 10**6

    def __post_init__(self):
        for name in ("T", "epsilon", "C0", "psi", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.T < 50:
            raise DomainError("T must be at least 50")
        if not 0.0 < self.epsilon < 0.25:
            raise DomainError("epsilon must lie in (0, 1/4)")
        if self.C0 <= 0:
            raise DomainError("C0 must be positive")
        if self.Aprime < 2:
            raise DomainError("Aprime must be an integer >= 2")
        if self.grid_density < 4:
            raise DomainError("grid_density must be at least 4")
        if self.nj_cap < 1:
            raise DomainError("nj_cap must be at least 1")


@dataclass
class BoxGrid:
    config: ContourConfig
    spec: SeriesSpec
    delta_T: float
    J_T: int
    K_T: int
    sigma: np.ndarray         # edges sigma_0..sigma_{J_T+1}
    tau: np.ndarray           # edges tau_0..tau_{K_T+1}
    N_j: np.ndarray
    nj_capped: np.ndarray
    classes: np.ndarray       # (J_T+1, K_T+1): -1 unset, 0 Y, 1 W
    windings: np.ndarray      # rounded winding numbers (low range), else -1
    sampled_min: np.ndarray   # sampled min of |zeta L M_N| (high range), else nan

    def regime_low(self, j: int) -> bool:
        k1 = self.spec.kappa1
        return self.sigma[j] <= (1.0 - self.config.epsilon) / k1 + 1e-15

    def column_tops(self) -> np.ndarray:
        """j_k = max{j : box (j, k) marked W}, -1 when the column is all Y."""
        if np.any(self.classes < 0):
            raise DomainError("classify the grid first")
        tops = np.full(self.K_T + 1, -1, dtype=np.int64)
        for k in range(self.K_T + 1):
            ws = np.nonzero(self.classes[:, k] == 1)[0]
            tops[k] = int(ws[-1]) if ws.size else -1
        return tops

    def in_marked_region(self, s: complex, tops: np.ndarray) -> bool:
        """Point test against the union of columns' boxes up to j_k; tops is
        column_tops() of the grid as it stands."""
        k1 = self.spec.kappa1
        lt = math.log(self.config.T)
        tau = abs(s.imag)
        k = math.floor((k1 * tau - 1.0) / lt)
        if k < 0 or k > self.K_T:
            return False
        j = math.floor((k1 * s.real - 0.5) * lt)
        if j < 0 or j > self.J_T:
            return False
        return j <= tops[k]


@dataclass(frozen=True)
class ContourPolyline:
    """Upper-half polyline; the full contour is its mirror image across the
    real axis joined at the starting point."""

    vertices: tuple[complex, ...]

    def full(self) -> tuple[complex, ...]:
        lower = tuple(v.conjugate() for v in reversed(self.vertices) if v.imag != 0)
        return lower + self.vertices

    def segments(self):
        return list(zip(self.vertices[:-1], self.vertices[1:]))


# ----------------------------------------------------------------------------
# zeta * L product and Dirichlet polynomial evaluation
# ----------------------------------------------------------------------------

def zl_product_many(s: np.ndarray, spec: SeriesSpec) -> np.ndarray:
    """prod_i zeta(kappa_i s) L(kappa_i s, chi_i) on an array of points, to
    the scan tolerance _SCAN_TOL.

    Components with chi_i = None contribute only their zeta factor, so pure
    zeta products are covered by the same machinery.
    """
    s = np.asarray(s, dtype=np.complex128)
    out = np.ones_like(s)
    for k, chi in zip(spec.kappa.kappa, spec.chis):
        out = out * specfun.zeta_many(k * s, _SCAN_TOL)
        if chi is not None:
            out = out * specfun.dirichlet_l_many(k * s, chi, _SCAN_TOL)
    return out


def m_series_coeffs(spec: SeriesSpec, limit: int) -> arith.CoeffVector:
    """Coefficients of the truncated inverse series M_x: exactly the Dirichlet
    inverse of the product's coefficient stream, cut at the limit."""
    return arith.dirichlet_inverse(arith.tau_chi_coeffs(limit, spec.kappa, spec.chis))


def _dirichlet_poly(s: np.ndarray, coeff_values: np.ndarray) -> np.ndarray:
    """sum_n c_n n^{-s} for c = coeff_values[1:], vectorized and chunked."""
    s = np.asarray(s, dtype=np.complex128)
    support = np.nonzero(coeff_values[1:])[0] + 1
    # math.log, not np.log: the same bits on every SIMD target
    logn = np.array([math.log(n) for n in support.tolist()])
    cvals = coeff_values[support].astype(np.complex128)
    chunk = max(1, (1 << 22) // max(support.size, 1))
    flat = s.reshape(-1)
    res = np.empty_like(flat)
    for i in range(0, flat.size, chunk):
        block = flat[i : i + chunk, None]
        res[i : i + chunk] = (cvals[None, :] * np.exp(-block * logn[None, :])).sum(axis=1)
    return res.reshape(s.shape)


# ----------------------------------------------------------------------------
# frak M: maximum of |prod zeta(kappa_i s)|^2 on the outer ring of a grid
# ----------------------------------------------------------------------------

def frak_m(varsigma: float, T: float, spec: SeriesSpec, density: int = 8) -> float:
    """Maximum of |prod_i zeta(kappa_i s)|^2 over sigma >= varsigma,
    1 <= |tau| <= T, sampled on the outer ring of a grid with `density`
    samples per box side.

    The sigma scan stops at 2/kappa_1 where the absolutely-convergent triangle
    bound prod zeta(2 kappa_i/kappa_1)^2 takes over (the max of the two is
    returned).  Conjugate symmetry reduces tau to [1, T].  The product is
    analytic on the closed rectangle varsigma <= sigma <= 2/kappa_1,
    1 <= tau <= T (its poles s = 1/kappa_i are real), so by the
    maximum-modulus principle its maximum there lies on the boundary: only
    the grid's first and last sigma columns and first and last tau rows are
    evaluated, in one zeta batch per factor.  A zeta value depends only on
    its own point, so every ring value is bit-identical to the same node in
    a full-grid scan.  The sampled maximum is not converged in `density`
    (ROADMAP item 9).
    """
    k1 = spec.kappa1
    if varsigma < 1.0 / (2.0 * k1) - 1e-12:
        raise DomainError("varsigma below 1/(2 kappa_1)")
    if T < 3:
        raise DomainError("T too small")
    lt = math.log(T)
    width = 1.0 / (k1 * lt)
    height = lt / k1
    sig_hi = max(2.0 / k1, varsigma)
    sig = np.arange(varsigma, sig_hi + width / density, width / density)
    taus = np.arange(1.0, T + height / density, height / density)
    taus = taus[taus <= T]
    s = np.concatenate([
        sig[0] + 1j * taus, sig[-1] + 1j * taus, sig + 1j * taus[0], sig + 1j * taus[-1]
    ])
    vals = np.ones_like(s)
    tail = 1.0
    for k in spec.kappa.kappa:
        vals = vals * specfun.zeta_many(k * s, _SCAN_TOL)
        tail *= specfun.zeta_complex(2.0 * k / k1).real ** 2
    return max(float(np.max(np.abs(vals) ** 2)), tail)


# ----------------------------------------------------------------------------
# Grid construction and classification
# ----------------------------------------------------------------------------

def build_grid(cfg: ContourConfig, spec: SeriesSpec) -> BoxGrid:
    """Populate the box partition and the per-row truncation lengths N_j."""
    T = cfg.T
    if T < 200:
        warnings.warn(
            "T below 200: asymptotic constants are meaningless at this scale; "
            "structure checks only",
            stacklevel=2,
        )
    k1 = spec.kappa1
    lt = math.log(T)
    llt = math.log(lt)
    delta = cfg.C0 * lt ** (-2.0 / 3.0) * llt ** (-1.0 / 3.0)
    if delta >= 0.5:
        raise DomainError("delta_T >= 1/2; increase T or decrease C0")
    J = int(math.floor((0.5 - delta) * lt))
    K = int(math.floor(T / lt))
    sigma = (0.5 + np.arange(J + 2) / lt) / k1
    tau = (1.0 + np.arange(K + 2) * lt) / k1

    nj = np.zeros(J + 1)
    capped = np.zeros(J + 1, dtype=bool)
    fm_cache: dict[float, float] = {}
    for j in range(J + 1):
        varsigma = 4.0 * sigma[j] - 3.0 / k1
        clamped = max(varsigma, 1.0 / (2.0 * k1))
        if clamped not in fm_cache:
            fm_cache[clamped] = frak_m(clamped, 8.0 * T, spec, cfg.grid_density)
        fm = fm_cache[clamped]
        expo = 1.0 / (2.0 * (1.0 / k1 - sigma[j]))
        log_raw = expo * (math.log(cfg.Aprime) + 5.0 * math.log(lt) + math.log(fm))
        if log_raw > math.log(cfg.nj_cap):
            nj[j] = cfg.nj_cap
            capped[j] = True
        else:
            nj[j] = math.exp(log_raw)
    shape = (J + 1, K + 1)
    return BoxGrid(
        config=cfg,
        spec=spec,
        delta_T=delta,
        J_T=J,
        K_T=K,
        sigma=sigma,
        tau=tau,
        N_j=nj,
        nj_capped=capped,
        classes=np.full(shape, -1, dtype=np.int8),
        windings=np.full(shape, -1, dtype=np.int64),
        sampled_min=np.full(shape, np.nan),
    )


def _rect_boundary(s_lo, s_hi, t_lo, t_hi, f: np.ndarray) -> np.ndarray:
    """Counterclockwise boundary samples of a rectangle at the fractions f of
    each side, one row per side (bottom, right, top, left); with
    f = linspace(0, 1, n, endpoint=False) the rows, read in order, are the
    ring without a repeated corner."""
    bottom = (s_lo + (s_hi - s_lo) * f) + 1j * t_lo
    right = s_hi + 1j * (t_lo + (t_hi - t_lo) * f)
    top = (s_hi - (s_hi - s_lo) * f) + 1j * t_hi
    left = s_lo + 1j * (t_hi - (t_hi - t_lo) * f)
    return np.stack([bottom, right, top, left])


def _winding_number(vals: np.ndarray) -> tuple[float, float]:
    """Winding number of a sampled closed ring about 0, and the largest
    sample-to-sample phase step (each step is taken in (-pi, pi])."""
    steps = np.angle(np.roll(vals, -1) / vals)
    return float(steps.sum() / (2.0 * math.pi)), float(np.abs(steps).max())


def _classify_low_row(grid: BoxGrid, j: int, ks) -> list[int]:
    """Zero counts in the (half-open) boxes (j, k), k in ks, by the argument
    principle.

    The winding rectangle is the box shifted left/down by half a box width and
    a small height fraction, matching the closed-left/open-right semantics:
    numerically relevant zeros sit on the left edge of the bottom row, which
    the shift turns into interior points.  A ring is refined while a phase
    step exceeds pi/2: a zero close to the ring turns the phase by more than
    pi between samples, which aliases to a step of the other sign and loses
    a whole turn without leaving a fractional winding.

    Each attempt evaluates the rings of all boxes still open in one
    zl_product_many call.  A doubled ring evaluates only its new odd samples:
    its even samples are the old ring's samples bit for bit (linspace without
    endpoint), and each value depends only on its point.
    """
    hs = 0.5 * (grid.sigma[j + 1] - grid.sigma[j])
    rects = {}
    for k in ks:
        ht = (grid.tau[k + 1] - grid.tau[k]) / 1024.0
        rects[k] = (grid.sigma[j] - hs, grid.sigma[j + 1] - hs, grid.tau[k] - ht, grid.tau[k + 1] - ht)
    per_side = 4 * grid.config.grid_density
    f = np.linspace(0.0, 1.0, per_side, endpoint=False)
    rings, winds, todo = {}, {}, list(ks)
    for attempt in range(4):
        pts = np.concatenate([_rect_boundary(*rects[k], f) for k in todo], axis=1)
        new = np.split(zl_product_many(pts, grid.spec), len(todo), axis=1)
        for k, vals in zip(todo, new):
            # old and new samples interleaved, side by side
            rings[k] = np.stack((rings[k], vals), axis=-1).reshape(4, -1) if attempt else vals
            winds[k] = _settled_winding(rings[k].reshape(-1))
        todo = [k for k in todo if winds[k] is None]
        if not todo:
            return [winds[k] for k in ks]
        per_side *= 2
        f = np.linspace(0.0, 1.0, per_side, endpoint=False)[1::2]
    raise BoundaryZeroError(
        f"box (j={j}, k={todo[0]}): boundary too close to a zero after 3 retries"
    )


def _settled_winding(vals: np.ndarray) -> int | None:
    """The winding number of a sampled ring, or None while a sample nearly
    vanishes, a phase step exceeds pi/2 or the winding is not near an
    integer."""
    if float(np.min(np.abs(vals))) < 1e-8:
        return None
    wind, max_step = _winding_number(vals)
    if max_step <= 0.5 * math.pi and abs(wind - round(wind)) < 0.1:
        return int(round(wind))
    return None


def _classify_high_box(grid: BoxGrid, j: int, k: int, m_coeffs) -> float:
    cfg = grid.config
    g = cfg.grid_density
    off = (np.arange(g) + 0.5) / g
    sig = grid.sigma[j] + (grid.sigma[j + 1] - grid.sigma[j]) * off
    tau = grid.tau[k] + (grid.tau[k + 1] - grid.tau[k]) * off
    pts = (sig[:, None] + 1j * tau[None, :]).reshape(-1)
    vals = zl_product_many(pts, grid.spec) * _dirichlet_poly(pts, m_coeffs)
    return float(np.min(np.abs(vals)))


def classify_boxes(grid: BoxGrid) -> BoxGrid:
    """Fill the W/Y classes: argument-principle zero counts in the low range,
    sampled |zeta L M_N| minima against the 1/2 threshold in the high range."""
    m_cache: dict[int, np.ndarray] = {}
    for j in range(grid.J_T + 1):
        if grid.regime_low(j):
            winds = _classify_low_row(grid, j, range(grid.K_T + 1))
            grid.windings[j] = winds
            grid.classes[j] = [1 if wind >= 1 else 0 for wind in winds]
        else:
            nj = int(grid.N_j[j])
            if nj not in m_cache:
                m_cache[nj] = m_series_coeffs(grid.spec, nj).values
            for k in range(grid.K_T + 1):
                mn = _classify_high_box(grid, j, k, m_cache[nj])
                grid.sampled_min[j, k] = mn
                grid.classes[j, k] = 1 if mn < 0.5 else 0
    return grid


# ----------------------------------------------------------------------------
# Contour construction
# ----------------------------------------------------------------------------

def build_contour(grid: BoxGrid) -> ContourPolyline:
    """Upper polyline: per column a vertical run at sigma_{j_k+1} + d_v,
    horizontal jogs at d_h above/below the column boundary on the taller side.
    d_v is epsilon^2/kappa_1 in the low range and a box width above it."""
    cfg = grid.config
    k1 = grid.spec.kappa1
    tops = grid.column_tops()
    blocked = np.nonzero(tops >= grid.J_T)[0]
    if blocked.size:
        raise ContourBlockedError(int(blocked[0]))
    d_h = math.log(math.log(cfg.T)) / k1
    low_dv, high_dv = cfg.epsilon**2 / k1, 1.0 / (k1 * math.log(cfg.T))
    sig_v = np.array([grid.sigma[t + 1] + (low_dv if grid.regime_low(t + 1) else high_dv) for t in tops])
    verts: list[complex] = [complex(sig_v[0], 0.0)]
    for k in range(grid.K_T):
        a, b = sig_v[k], sig_v[k + 1]
        if a == b:
            continue
        boundary = grid.tau[k + 1]
        # jog below the boundary when moving right (taller marked region
        # ahead), above it when moving left (taller region behind)
        t_jog = boundary - d_h if b > a else boundary + d_h
        verts.append(complex(a, t_jog))
        verts.append(complex(b, t_jog))
    verts.append(complex(sig_v[grid.K_T], grid.tau[grid.K_T + 1]))
    return ContourPolyline(tuple(verts))


def contour_clear_of_marked(grid: BoxGrid, poly: ContourPolyline) -> bool:
    """No point of 64 even samples per segment lies in the marked region."""
    tops = grid.column_tops()
    for a, b in poly.segments():
        f = np.linspace(0.0, 1.0, 64)
        pts = a + (b - a) * f
        for p in pts:
            if grid.in_marked_region(complex(p), tops):
                return False
    return True


# ----------------------------------------------------------------------------
# Envelope reports
# ----------------------------------------------------------------------------

def check_prop31(poly: ContourPolyline, grid: BoxGrid) -> dict:
    """Extremal log-gaps between |zeta L| on the contour and the two envelope
    shapes T^{+-c(eps) (1-kappa_1 sigma)} (log T)^{+-4} (constants free)."""
    cfg = grid.config
    spec = grid.spec
    k1 = spec.kappa1
    lt = math.log(cfg.T)
    llt = math.log(lt)
    c_up = 136.0 * math.sqrt(2.0 * cfg.epsilon)
    c_lo = 544.0 * math.sqrt(2.0 * cfg.epsilon)
    step_v = (lt / k1) / (4.0 * cfg.grid_density)
    step_h = (1.0 / (k1 * lt)) / (4.0 * cfg.grid_density)
    pts = []
    for a, b in poly.segments():
        length = abs(b - a)
        step = step_h if a.imag == b.imag else step_v
        n = max(2, int(math.ceil(length / step)) + 1)
        f = np.linspace(0.0, 1.0, n)
        pts.append(a + (b - a) * f)
    s = np.concatenate(pts)
    s = s[s.imag >= 1.0]  # envelopes are tau >= 1 statements
    vals = zl_product_many(s, spec)
    log_abs = np.array([math.log(v) for v in np.abs(vals).tolist()])  # as in _dirichlet_poly
    shape = (1.0 - k1 * s.real) * lt
    log_up = c_up * shape + 4.0 * llt
    log_lo = -c_lo * shape - 4.0 * llt
    up_ratio = float(np.max(log_abs - log_up))
    lo_ratio = float(np.max(log_lo - log_abs))
    if not (math.isfinite(up_ratio) and math.isfinite(lo_ratio)):
        raise AccuracyError("non-finite envelope log-ratio")
    return {
        "max_upper_logratio": up_ratio,
        "max_lower_logratio": lo_ratio,
        "samples": int(s.size),
    }


def count_w_per_column(grid: BoxGrid) -> dict:
    """|{k : box (j,k) marked W}| per j, with the zero-density envelope shape
    T^{psi (1-kappa_1 sigma_j)} (log T)^eta for comparison (constants free)."""
    if np.any(grid.classes < 0):
        raise DomainError("classify the grid first")
    cfg = grid.config
    k1 = grid.spec.kappa1
    lt = math.log(cfg.T)
    counts = [int((grid.classes[j] == 1).sum()) for j in range(grid.J_T + 1)]
    envelope = [
        float(cfg.T ** (cfg.psi * (1.0 - k1 * grid.sigma[j])) * lt**cfg.eta)
        for j in range(grid.J_T + 1)
    ]
    return {"counts": counts, "envelope": envelope}


# ----------------------------------------------------------------------------
# Bombieri-type inequality check
# ----------------------------------------------------------------------------

def bombieri_check_many(instances) -> list[bool]:
    """For each (points, a) of instances, whether the mean-value inequality
    with b_n = 1 (B = zeta) holds:

        sum_s |sum_n a_n n^{-s}|^2 <= (sum |a_n|^2) max_s sum_{s'} |zeta(conj(s) + s')|,

    which needs min Re(conj(s)+s') > 1.1 for absolute convergence.

    The zeta values of every instance's pairs conj(s) + s' go through one
    zeta_many call, which bounds its own work in flight; each value depends
    only on its point, so the result is that of one instance at a time.
    """
    checks = []
    for points, a in instances:
        pts = np.array([complex(p) for p in points], dtype=np.complex128)
        if not pts.size:
            raise DomainError("need at least one point")
        pair = np.conj(pts)[:, None] + pts[None, :]  # conj(s) + s'
        min_re = float(pair.real.min())
        if min_re <= 1.1:
            raise ConvergenceError(f"need min Re(conj(s)+s') > 1.1, got {min_re}")
        checks.append((pts, np.asarray(a, dtype=np.complex128), pair))
    if not checks:
        return []
    flat = np.concatenate([pair.reshape(-1) for _, _, pair in checks])
    big_bs = np.split(specfun.zeta_many(flat), np.cumsum([pair.size for _, _, pair in checks])[:-1])
    out = []
    for (pts, a, pair), big_b in zip(checks, big_bs):
        lhs = 0.0
        for v in _dirichlet_poly(pts, np.concatenate(([0], a))).tolist():
            lhs += abs(v) ** 2
        weight = float(np.sum(np.abs(a) ** 2))
        rhs = weight * float(np.abs(big_b.reshape(pair.shape)).sum(axis=1).max())
        out.append(lhs <= rhs * (1.0 + 1e-12))
    return out


# ----------------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------------

def contour_report(cfg: ContourConfig, spec: SeriesSpec) -> dict:
    """Build, classify, route, and measure; returns a JSON-ready dict, to
    which the CLI adds the config it ran."""
    grid = build_grid(cfg, spec)
    classify_boxes(grid)
    poly = build_contour(grid)
    prop31 = check_prop31(poly, grid)
    wcounts = count_w_per_column(grid)
    return {
        "spec": spec.describe(),
        "delta_T": grid.delta_T,
        "J_T": grid.J_T,
        "K_T": grid.K_T,
        "sigma": [float(v) for v in grid.sigma],
        "tau_first": float(grid.tau[0]),
        "tau_last": float(grid.tau[-1]),
        "N_j": [float(v) for v in grid.N_j],
        "N_j_capped": [bool(v) for v in grid.nj_capped],
        "classes": [
            "".join("W" if c == 1 else "Y" for c in grid.classes[j])
            for j in range(grid.J_T + 1)
        ],
        "w_counts": wcounts["counts"],
        "w_envelope": wcounts["envelope"],
        "contour_vertices": [[v.real, v.imag] for v in poly.vertices],
        "contour_clear": contour_clear_of_marked(grid, poly),
        "prop31": prop31,
    }
