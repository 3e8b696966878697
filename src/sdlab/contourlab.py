"""Box partition of the critical strip, zero/small-value classification, the
zero-detour contour, and empirical envelope checks.

Desk-scale geometry: boxes are width 1/(kappa_1 log T) and height log T /
kappa_1.  Classification counts zeros of the zeta*L product by the argument
principle around a half-open-adjusted rectangle, in every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
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
    "contour_report",
]

# Euler-Maclaurin tolerance of every contour and frak_m evaluation; it sets
# the head length M and the extended-phase switch on the T=200 contour.
_SCAN_TOL = 1e-9


@dataclass(frozen=True)
class ContourConfig:
    """Free constants of the construction; the CLI echoes them into every report.

    T must be at least 50.  Below T = 200 the asymptotic constants mean
    nothing, and a run checks structure only.
    """

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
    windings: np.ndarray      # winding numbers, -1 until classified

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


def _dirichlet_poly(s: np.ndarray, coeff_values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_n c_n n^{-s} at the point s[i] of a flat complex s for
    c = coeff_values[rows[i], 1:].  Only the nonzero c_n enter; the points
    whose rows have equally many go through one array, chunked."""
    c = coeff_values[:, 1:]
    row, n = np.nonzero(c)
    size = np.bincount(row, minlength=len(c))
    first = np.cumsum(size) - size  # of each row's entries in (row, n)
    logs = np.zeros(c.shape[1])
    used = np.flatnonzero(c.any(axis=0))
    # math.log, not np.log: the same bits on every SIMD target
    logs[used] = [math.log(v + 1) for v in used.tolist()]
    res = np.empty_like(s)
    for count in np.flatnonzero(np.bincount(size)).tolist():
        group = np.flatnonzero(size == count)
        k = n[first[group, None] + np.arange(count)]
        cvals, logn = c[group[:, None], k].astype(np.complex128), logs[k]
        at = np.flatnonzero(size[rows] == count)
        local = np.searchsorted(group, rows[at])
        chunk = max(1, (1 << 22) // max(count, 1))
        for i in range(0, at.size, chunk):
            r = slice(None) if group.size == 1 else local[i : i + chunk]  # one row broadcasts
            block = s[at[i : i + chunk], None]
            res[at[i : i + chunk]] = (cvals[r] * np.exp(-block * logn[r])).sum(axis=1)
    return res


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
    maximum-modulus principle its maximum there lies on the boundary; on its
    right side it is at most the triangle bound.  So only the grid's first
    sigma column and first and last tau rows are evaluated, in one zeta
    batch per factor.  A zeta value depends only on its own point, so every
    ring value is bit-identical to the same node in a full-grid scan.  The
    sampled maximum is not converged in `density` (ROADMAP item 9).
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
    s = np.concatenate([sig[0] + 1j * taus, sig + 1j * taus[0], sig + 1j * taus[-1]])
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
    """Populate the box partition and the per-row truncation lengths N_j.

    Any T that ContourConfig accepts builds; see its docstring for T < 200.
    """
    T = cfg.T
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
    )


def _lattice_turns(vals: np.ndarray, n: int):
    """Phase steps between the samples (the nonzero entries) along each row
    of vals, a lattice line of edges n places long: per step its edge, its
    two samples' flat places and whether it exceeds pi/2; per edge their sum
    and whether one does."""
    width = vals.shape[1]
    shape = (vals.shape[0], (width - 1) // n)
    at = np.flatnonzero(vals)
    inner = at[:-1] % width != width - 1  # not from a line's end to the next
    lo, hi = at[:-1][inner], at[1:][inner]
    edge = lo // width * shape[1] + lo % width // n
    steps = np.angle(vals.reshape(-1)[hi] / vals.reshape(-1)[lo])
    big = np.abs(steps) > 0.5 * math.pi
    sums = [np.bincount(edge, w, math.prod(shape)).reshape(shape) for w in (steps, big)]
    return (edge, lo, hi, big), sums[0], sums[1] > 0


def _lattice_windings(grid: BoxGrid, rows: int) -> np.ndarray:
    """Zero counts in the (half-open) boxes of the first `rows` rows, by the
    argument principle.

    A box's winding rectangle is the box shifted left by half a width and
    down by 1/1024 of a height: numerically relevant zeros sit on the left
    edge of the bottom row, which the shift turns into interior points.  The
    rectangles tile a lattice; each edge is sampled once for both its boxes,
    at the fractions i/(32 grid_density) of its length, every 8th at first,
    and a box winds by the signed sum of its edges' phase changes.  The
    steps of a closed loop telescope, so that sum is an integer up to
    rounding; a loop further than 1e-9 from one is not closed and raises
    AccuracyError.  A zero near an edge turns the phase by more than pi
    between samples, aliasing to a step of the other sign, so a box settles
    only when none of its steps exceeds pi/2, and an unsettled box's edges
    get a midpoint in each segment whose step does, all in one
    zl_product_many call per attempt.  A nearly vanishing sample stays, so
    it ends the classification.
    """
    n = 32 * grid.config.grid_density
    f = np.linspace(0.0, 1.0, n + 1)[:-1]
    x = grid.sigma[: rows + 1] - 0.5 * (grid.sigma[1] - grid.sigma[0])
    y = grid.tau - (grid.tau[1] - grid.tau[0]) / 1024.0
    # the lines tau_k - ht, then sigma_j - hs, sampled in increasing order; a
    # vertical line reads its corners from the horizontal ones
    xs, ys = (np.append((e[:-1, None] + np.diff(e)[:, None] * f).reshape(-1), e[-1]) for e in (x, y))
    pts = (xs + 1j * y[:, None], x[:, None] + 1j * ys)
    new = [np.tile(np.arange(p.shape[1]) % 8 == 0, (len(p), 1)) for p in pts]
    new[1][:, ::n] = False
    vals = [np.zeros_like(p) for p in pts]  # 0 until sampled; no sample is 0
    winds = np.zeros((rows, y.size - 1), dtype=np.int64)
    todo = np.ones(winds.shape, dtype=bool)
    for _ in range(4):
        s = np.concatenate([p[m] for p, m in zip(pts, new)])
        out = zl_product_many(s, grid.spec)
        if float(np.min(np.abs(out))) < 1e-8:
            raise BoundaryZeroError(f"the winding-lattice sample {s[np.argmin(np.abs(out))]} nearly vanishes")
        for v, m, part in zip(vals, new, np.split(out, [np.count_nonzero(new[0])])):
            v[m] = part
        vals[1][:, ::n] = vals[0][:, ::n].T
        steps, (th, tv), (bh, bv) = zip(*(_lattice_turns(v, n) for v in vals))
        wide = bh[:-1].T | bh[1:].T | bv[:-1] | bv[1:]
        wind = ((th[:-1] - th[1:]).T - (tv[:-1] - tv[1:])) / (2.0 * math.pi)
        off = float(np.max(np.abs(wind - np.rint(wind))))
        if off > 1e-9:
            raise AccuracyError(f"a winding loop's phase steps sum to {off:.3g} turns off an integer")
        settled = todo & ~wide
        winds[settled] = np.rint(wind[settled])
        todo &= wide
        if not todo.any():
            return winds
        for m, (edge, lo, hi, big), b in zip(new, steps, (todo.T, todo)):
            # the unsettled boxes' edges, line by line
            some = (np.pad(b, ((0, 1), (0, 0))) | np.pad(b, ((1, 0), (0, 0)))).reshape(-1)
            split = some[edge] & big
            m[:] = False
            m.reshape(-1)[(lo[split] + hi[split]) // 2] = True
    j, k = np.argwhere(todo)[0]
    raise BoundaryZeroError(f"box (j={j}, k={k}): no settled winding after 3 refinements")


def classify_boxes(grid: BoxGrid) -> BoxGrid:
    """Fill the windings and the W/Y classes of every row: a box is W when the
    argument principle counts a zero in it."""
    grid.windings[:] = _lattice_windings(grid, grid.J_T + 1)
    grid.classes[:] = grid.windings >= 1
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

def _pair_zetas(groups: list[np.ndarray]) -> list[np.ndarray]:
    """zeta on each (g, m, m) stack of matrices of points conj(s_i) + s_j, all
    in one zeta_many call.  conj(s_j) + s_i is exactly conj(conj(s_i) + s_j),
    so below the diagonal a point takes its partner's conjugate value unless
    specfun does not fold it (extended phases, Im = 0)."""
    flat = np.concatenate([pairs.reshape(-1) for pairs in groups])
    ends = np.cumsum([pairs.size for pairs in groups])
    partner = np.concatenate([np.arange(e - p.size, e).reshape(p.shape).swapaxes(1, 2).reshape(-1)
                              for p, e in zip(groups, ends)])
    direct = (partner >= np.arange(flat.size)) | (flat.imag == 0)
    # only a point that could fold needs its phase plan
    below = np.flatnonzero(~direct)
    direct[below] = specfun._em_plan(np.abs(flat.imag[below]), 1e-12)[1]
    vals = np.empty_like(flat)
    vals[direct] = specfun.zeta_many(flat[direct], 1e-12)
    fold = np.flatnonzero(~direct)
    vals[fold] = np.conj(vals[partner[fold]])
    return [v.reshape(p.shape) for v, p in zip(np.split(vals, ends[:-1]), groups)]


def _bombieri_sides(instances) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of bombieri_check_many's inequality for each instance, the
    same bits as one instance at a time: lhs adds abs(v) ** 2 of the Python
    complex values v in point order, and the row sums of |a_n|^2 and |zeta|
    are those of one instance's rows, in instances grouped by their point
    count m (the pair matrices) and coefficient count n (the weights)."""
    pts = [[complex(p) for p in points] for points, _ in instances]
    m = np.array([len(p) for p in pts], dtype=np.int64)
    n = np.array([len(a) for _, a in instances], dtype=np.int64)
    s = np.array([p for ps in pts for p in ps], dtype=np.complex128)
    fill = np.arange(m.max(initial=1)) < m[:, None]  # each instance's points, in order
    grid = np.full(fill.shape, np.inf, dtype=np.complex128)
    grid[fill] = s
    min_re = grid.real.min(axis=1) * 2.0  # min Re(conj(s) + s') per instance
    bad = np.flatnonzero((m == 0) | (min_re <= 1.1))[:1]
    if bad.size:
        raise DomainError("need at least one point") if not m[bad[0]] else ConvergenceError(
            f"need min Re(conj(s)+s') > 1.1, got {float(min_re[bad[0]])}")
    coeffs = np.zeros((m.size, n.max(initial=0) + 1), dtype=np.complex128)
    coeffs[:, 1:][np.arange(coeffs.shape[1] - 1) < n[:, None]] = [v for _, a in instances for v in a]
    sq = np.zeros(fill.shape)
    sq[fill] = [abs(v) ** 2 for v in _dirichlet_poly(s, coeffs, np.repeat(np.arange(m.size), m)).tolist()]
    lhs = np.cumsum(sq, axis=1)[:, -1]
    by_m = [np.flatnonzero(m == k) for k in np.flatnonzero(np.bincount(m)).tolist()]
    pairs = [np.conj(grid[i, : m[i[0]], None]) + grid[i, None, : m[i[0]]] for i in by_m]
    zmax = np.empty(m.size)
    for i, b in zip(by_m, _pair_zetas(pairs)):
        zmax[i] = np.abs(b).sum(axis=2).max(axis=1)
    weight = np.empty(m.size)
    for k in np.flatnonzero(np.bincount(n)).tolist():
        i = np.flatnonzero(n == k)
        weight[i] = (np.abs(coeffs[i, 1 : k + 1]) ** 2).sum(axis=1)
    return lhs, weight * zmax


def bombieri_check_many(instances) -> list[bool]:
    """For each (points, a) of instances, whether the mean-value inequality
    with b_n = 1 (B = zeta) holds:

        sum_s |sum_n a_n n^{-s}|^2 <= (sum |a_n|^2) max_s sum_{s'} |zeta(conj(s) + s')|,

    which needs min Re(conj(s)+s') > 1.1 for absolute convergence.

    The instances are checked together (_bombieri_sides): their Dirichlet
    polynomials in one _dirichlet_poly call, and the zeta values of their
    pairs conj(s) + s' in one zeta_many call (_pair_zetas) that evaluates
    the upper triangles and folds the rest.  Each value depends only on its
    own point, so the result is that of one instance at a time.
    """
    instances = list(instances)
    if not instances:
        return []
    lhs, rhs = _bombieri_sides(instances)
    return (lhs <= rhs * (1.0 + 1e-12)).tolist()


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
