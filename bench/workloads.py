"""The benchmark's three workloads: their jobs, and the checks of every job's
output against bench/reference.json (computed without sdlab) or against
closed forms and properties the method must have.

A job is one call through ``cli.run_command`` followed by ``cli.render_json``,
as the ``sdlab`` CLI does, or a call into a module's public functions where
the CLI has no command.  ``check`` turns a job's output into an Outcome: how
many operations it attempted, how many failed, and any wrong output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("window", "contour", "series")

# t = 0.05, 0.10, ..., 0.95, the CLI's default grid
T_GRID = [round(0.05 * i, 2) for i in range(1, 20)]

# The program sums floats over up to 1e7 terms in [0, 1], so its means sit
# within ~1e-13 of the exact rational means; one misjudged divisor d <= n^t
# moves a mean by at least 1 / (max tau(n) * count) > 2e-10 in these windows.
MEAN_TOL = 1e-12
LAW_TOL = 1e-11
# Square-full sup error at x = 1e10, theta = 0.42, computed outside the
# package (sympy divisors, exact tests d^20 <= n^k, G by scipy quadrature).
SQUAREFULL_SUP = 0.0178891503
SQUAREFULL_SUP_TOL = 1e-9
# Taylor data against 30-digit mpmath.taylor: the program's g_l agree to a
# relative 1.5e-12 through order 16 (square-full) and 9.1e-12 through order 8
# (two squares, where the Cauchy radius is 1/4 and the error grows as 4^l).
G_REL_TOL = {"squarefull": 1e-11, "two_squares": 1e-10}
VALUE_REL_TOL = 1e-11

CONTOUR_CONFIG = {
    "command": "contour",
    "format": "json",
    "seed": 0,
    "T": 200.0,
    "epsilon": 0.05,
    "C0": 1.0,
    "c0": 1.0,
    "Aprime": 10,
    "psi": 2.4,
    "eta": 9.0,
    "grid_density": 8,
    "nj_cap": 10**6,
    "chi_modulus": 4,
}
BOMBIERI_INSTANCES = 1000

# Orders of the Stieltjes tables the series jobs request: expand --order 8
# and 16 ask for counts 8 and 16, main-term (order 4) for count 4.
STIELTJES_COUNTS = (4, 8, 16)
ALGEBRA_LIMIT = 10**6
PHI_X = 10**3


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs
    failures: list[str] = field(default_factory=list)  # failed operations

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def setup_code(workload: str) -> str:
    """What a fresh interpreter runs before the workload's first job."""
    code = "import sdlab.cli\n"
    if workload == "series":
        code += (
            "from sdlab import sdexpand\n"
            f"for count in {STIELTJES_COUNTS!r}:\n"
            "    sdexpand.stieltjes_constants(count)\n"
        )
    return code


def warm(workload: str, sd) -> None:
    """The same one-time tables, filled in the timed process before timing."""
    if workload == "series":
        for count in STIELTJES_COUNTS:
            sd.sdexpand.stieltjes_constants(count)


def close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# ----------------------------------------------------------------------------
# window
# ----------------------------------------------------------------------------

def _cli_job(kind, sd, config, check):
    def run():
        return sd.cli.render_json(sd.cli.run_command(config))

    return Job(kind, run, lambda text: check(json.loads(text)))


def _check_law(artifact: dict, ref: dict, indicator: str) -> Outcome:
    out = Outcome()
    recs = artifact["records"]
    out.expect(artifact["summary"]["count"] == ref["count"],
               f"{indicator}: count {artifact['summary']['count']} != {ref['count']}")
    out.expect([r["t"] for r in recs] == ref["t"], f"{indicator}: t grid differs")
    worst = 0.0
    for r, emp, pred in zip(recs, ref["empirical"], ref["predicted"]):
        dev = abs(r["empirical"] - emp)
        worst = max(worst, dev)
        out.expect(abs(r["predicted"] - pred) <= LAW_TOL,
                   f"{indicator}: law at t={r['t']} is {r['predicted']!r}, reference {pred!r}")
        out.expect(r["abs_error"] == abs(r["empirical"] - r["predicted"]),
                   f"{indicator}: abs_error at t={r['t']} is not |empirical - predicted|")
        out.expect(r["indicator"] == indicator, f"{indicator}: wrong indicator field")
    out.expect(worst <= MEAN_TOL,
               f"{indicator}: mean of F_n(t) off the exact reference by {worst:.3e} "
               f"(threshold predicate, ROADMAP 3(b))")
    sup = artifact["summary"]["sup_error"]
    out.expect(sup == max(r["abs_error"] for r in recs), f"{indicator}: sup_error is not the max")
    out.expect(abs(sup - ref["sup_error"]) <= MEAN_TOL + LAW_TOL,
               f"{indicator}: sup_error {sup!r}, reference {ref['sup_error']!r}")
    if indicator == "squarefull":
        out.expect(abs(sup - SQUAREFULL_SUP) <= SQUAREFULL_SUP_TOL,
                   f"squarefull: sup_error {sup!r} != {SQUAREFULL_SUP}")
    return out


def window_jobs(sd, ref: dict, seed: int) -> list[Job]:
    grid = list(T_GRID)

    def law(indicator, key):
        return lambda art: _check_law(art, ref[key], indicator)

    def check_count(art):
        out = Outcome()
        rec = art["records"][0]
        want = ref["count_two_squares"]
        out.expect((rec["lo"], rec["hi"]) == (want["lo"], want["hi"]), "count: window echoed wrong")
        out.expect(rec["count"] == want["count"],
                   f"count: {rec['count']} sums of two squares, reference {want['count']}")
        return out

    return [
        _cli_job("ddt_1e7", sd, {"command": "ddt", "format": "json", "seed": 0,
                                 "x": 10**7, "t_grid": grid}, law("all", "window_ddt")),
        _cli_job("beta_two_squares_1e8", sd,
                 {"command": "beta", "format": "json", "seed": 0, "indicator": "two_squares",
                  "x": 10**8, "theta": 0.85, "t_grid": grid},
                 law("two_squares", "window_two_squares")),
        _cli_job("beta_squarefull_1e10", sd,
                 {"command": "beta", "format": "json", "seed": 0, "indicator": "squarefull",
                  "x": 10**10, "theta": 0.42, "t_grid": grid},
                 law("squarefull", "window_squarefull")),
        _cli_job("count_two_squares_2e7", sd,
                 {"command": "count", "format": "json", "seed": 0, "indicator": "two_squares",
                  "lo": 0, "hi": 2 * 10**7}, check_count),
    ]


# ----------------------------------------------------------------------------
# contour
# ----------------------------------------------------------------------------

def critical_box_counts(ref_zeros: dict, T: float) -> list[int]:
    """Zeros of zeta * L(., chi_4) inside each critical-line winding ring.

    Box k spans tau_k = 1 + k log T to tau_{k+1}; its ring is shifted down by
    a 1/1024 of the box height and straddles sigma = 1/2, so it counts the
    ordinates in (tau_k - h, tau_{k+1} - h)."""
    lt = math.log(T)
    K = math.floor(T / lt)
    shift = lt / 1024.0
    gammas = ref_zeros["zeta"] + ref_zeros["l_chi4"]
    counts = []
    for k in range(K + 1):
        a = 1.0 + k * lt - shift
        b = 1.0 + (k + 1) * lt - shift
        # the reference ordinates are good to ~1e-10; the closest one (an
        # L(s, chi_4) zero at 138.7501777) lies 9e-4 below the edge of ring 25
        if any(min(abs(g - a), abs(g - b)) < 1e-6 for g in gammas):
            raise ValueError(f"a reference zero sits on the edge of ring {k}")
        counts.append(sum(1 for g in gammas if a < g < b))
    return counts


def _check_contour(result, ref: dict) -> Outcome:
    """One operation per critical-line box, plus one for the rest of the
    artifact.  A box fails when its winding number differs from the number of
    reference zeros in its ring."""
    text, grid = result
    art = json.loads(text)
    cfg = CONTOUR_CONFIG
    T, eps = cfg["T"], cfg["epsilon"]
    lt, llt = math.log(T), math.log(math.log(T))
    want = critical_box_counts(ref["zeros"], T)
    K = math.floor(T / lt)
    delta = cfg["C0"] * lt ** (-2.0 / 3.0) * llt ** (-1.0 / 3.0)
    J = math.floor((0.5 - delta) * lt)
    sigma = [0.5 + j / lt for j in range(J + 2)]

    out = Outcome(attempted=1 + len(want))
    wind = [int(w) for w in grid.windings[0]]
    for k, (got, exp) in enumerate(zip(wind, want)):
        if got != exp:
            out.failures.append(f"critical-line box k={k}: winding {got}, {exp} zeros")
    out.failed = len(out.failures)
    out.expect(len(wind) == len(want), "contour: wrong number of critical-line boxes")

    out.expect(art["K_T"] == K and art["J_T"] == J, "contour: grid size")
    out.expect(close(art["delta_T"], delta, 1e-14), "contour: delta_T")
    out.expect(len(art["sigma"]) == J + 2
               and all(close(a, b, 1e-14) for a, b in zip(art["sigma"], sigma)),
               "contour: sigma edges")
    out.expect(close(art["tau_last"], 1.0 + (K + 1) * lt, 1e-14), "contour: top edge")
    # every low-range box off the critical line encloses no zero (no zeta or
    # L(s, chi_4) zero leaves the critical line at these heights)
    for j in range(1, J + 1):
        if sigma[j] <= 1.0 - eps:
            out.expect(all(int(w) == 0 for w in grid.windings[j]),
                       f"contour: zero counted off the critical line in row {j}")
    expected_classes = ["".join("W" if c >= 1 else "Y" for c in want)]
    expected_classes += ["Y" * (K + 1)] * J
    out.expect(art["classes"] == expected_classes, "contour: W/Y classes")
    out.expect(art["w_counts"] == [row.count("W") for row in expected_classes], "contour: w_counts")
    out.expect(all(close(e, T ** (cfg["psi"] * (1.0 - s)) * lt ** cfg["eta"], 1e-12)
                   for e, s in zip(art["w_envelope"], sigma)), "contour: w_envelope")
    out.expect(all(n <= cfg["nj_cap"] and capped == (n == cfg["nj_cap"])
                   for n, capped in zip(art["N_j"], art["N_j_capped"])), "contour: N_j cap")
    if all(c >= 1 for c in want):
        # every column's top W box is in row 0, so the contour is one vertical
        # line at sigma_1 + epsilon^2 (the low-range offset) from the real axis
        x = sigma[1] + eps**2
        out.expect(art["contour_vertices"] == [[x, 0.0], [x, art["tau_last"]]],
                   "contour: vertices")
    out.expect(art["contour_clear"] is True, "contour: contour crosses the marked region")
    p31 = art["prop31"]
    out.expect(p31["max_upper_logratio"] < 0 and p31["max_lower_logratio"] < 0,
               "contour: |zeta L| leaves the Proposition 3.1 envelopes")
    out.expect(art["config"] == cfg, "contour: config not echoed")
    return out


def contour_jobs(sd, ref: dict, seed: int) -> list[Job]:
    def run_contour():
        grids = []
        classify = sd.contourlab.classify_boxes

        def capture(grid):
            grids.append(classify(grid))
            return grids[-1]

        sd.contourlab.classify_boxes = capture
        try:
            text = sd.cli.render_json(sd.cli.run_command(dict(CONTOUR_CONFIG)))
        finally:
            sd.contourlab.classify_boxes = classify
        return text, grids[-1]

    bombieri = {"command": "bombieri", "format": "json", "seed": seed,
                "instances": BOMBIERI_INSTANCES, "max_n": 50, "max_set": 10, "sigma_min": 1.2}

    def check_bombieri(art):
        out = Outcome()
        rec = art["records"][0]
        out.expect(rec == {"instances": BOMBIERI_INSTANCES, "violations": 0, "all_hold": True},
                   f"bombieri: the inequality failed on seed {seed}: {rec}")
        return out

    return [
        Job("contour_T200", run_contour, lambda r: _check_contour(r, ref)),
        _cli_job("bombieri_1000", sd, bombieri, check_bombieri),
    ]


# ----------------------------------------------------------------------------
# series
# ----------------------------------------------------------------------------

def _rgamma(a: float) -> float:
    return 0.0 if a <= 0 and a == int(a) else 1.0 / math.gamma(a)


def _lambdas(g: list[float], k1: float, z1: float) -> list[float]:
    """lambda_l = kappa_1^{-z1} g_l / Gamma(z1 - l)."""
    return [k1**-z1 * gl * _rgamma(z1 - l) for l, gl in enumerate(g)]


def _check_expand(art: dict, g_ref: list[float], lam0: float, k1: float, z1: float,
                  order: int) -> Outcome:
    out = Outcome()
    recs = art["records"]
    out.expect([r["ell"] for r in recs] == list(range(order + 1)), "expand: wrong orders")
    lam = _lambdas(g_ref[: order + 1], k1, z1)
    scale = max(abs(g) for g in g_ref[: order + 1])
    tol = G_REL_TOL[art["config"]["app"]]
    for r, g, lm in zip(recs, g_ref, lam):
        out.expect(close(r["g_re"], g, tol),
                   f"expand {art['config']['app']}: g_{r['ell']} = {r['g_re']!r}, reference {g!r}")
        out.expect(abs(r["g_im"]) <= tol * scale, f"expand: g_{r['ell']} not real")
        out.expect(close(r["lambda_re"], lm, tol, 1e-14),
                   f"expand {art['config']['app']}: lambda_{r['ell']} = {r['lambda_re']!r}, "
                   f"expected {lm!r}")
    out.expect(close(art["lambda0_closed_form"][0], lam0, 1e-13)
               and abs(art["lambda0_closed_form"][1]) <= 1e-15,
               f"expand: lambda0 closed form {art['lambda0_closed_form']} != {lam0!r}")
    return out


def _check_main_term(art: dict, g_ref: list[float], k1: float, z1: float) -> Outcome:
    out = Outcome()
    cfg = art["config"]
    rec = art["records"][0]
    x, theta, order = cfg["x"], cfg["theta"], cfg["order"]
    y = x**theta
    y_prime = k1 * ((x + x ** (1.0 - 1.0 / k1) * y) ** (1.0 / k1) - x ** (1.0 / k1))
    L = math.log(x)
    lam = _lambdas(g_ref, k1, z1)
    value = y_prime * L ** (z1 - 1.0) * sum(lam[l] / L**l for l in range(order + 1))
    out.expect(close(rec["y_prime"], y_prime, 1e-9), f"main-term: y' {rec['y_prime']!r} != {y_prime!r}")
    out.expect(close(rec["value_re"], value, VALUE_REL_TOL),
               f"main-term {cfg['app']}: value {rec['value_re']!r}, reference {value!r}")
    out.expect(abs(rec["value_im"]) <= VALUE_REL_TOL * abs(value), "main-term: value not real")
    return out


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values[1:], dtype="<i8").tobytes()).hexdigest()


def series_jobs(sd, ref: dict, seed: int) -> list[Job]:
    exp = ref["expansion"]
    alg = ref["algebra"]
    arith = sd.arith
    kv = arith.KappaVector((2.0, 3.0))
    chis = (arith.quadratic_character(3), arith.quadratic_character(4))

    def expand(app, order):
        return {"command": "expand", "format": "json", "seed": 0, "app": app,
                "order": order, "prime_limit": 10**5}

    def main_term(app, x, theta):
        return {"command": "main_term", "format": "json", "seed": 0, "app": app,
                "x": x, "theta": theta, "order": 4, "prime_limit": 10**5}

    def run_algebra():
        tau = arith.tau_chi_coeffs(ALGEBRA_LIMIT, kv, chis)
        inv = arith.dirichlet_inverse(tau)
        return tau, inv, arith.dirichlet_convolve(tau, inv)

    def check_algebra(result):
        tau, inv, unit = result
        out = Outcome()
        out.expect(tau.exact and inv.exact and unit.exact, "algebra: lost exact integer dtype")
        out.expect(_digest(tau.values) == alg["tau_sha256"], "algebra: tau_chi_coeffs differ")
        out.expect(_digest(inv.values) == alg["inverse_sha256"], "algebra: dirichlet_inverse differs")
        u = unit.values
        out.expect(u[1] == 1 and not np.any(u[2:]), "algebra: tau * tau^-1 is not the unit")
        return out

    def run_phi():
        return arith.truncated_inverse_phi(PHI_X, ALGEBRA_LIMIT, kv, chis)

    def check_phi(phi):
        out = Outcome()
        v = phi.values
        out.expect(phi.exact and _digest(v) == alg["phi_sha256"], "phi: coefficients differ")
        out.expect(v[1] == 1 and not np.any(v[2 : PHI_X + 1]),
                   "phi: truncated-inverse coefficients do not vanish on 2..x")
        return out

    sf_g, ts_g = exp["squarefull_g"], exp["two_squares_g"]
    return [
        _cli_job("expand_squarefull_8", sd, expand("squarefull", 8),
                 lambda a: _check_expand(a, sf_g, exp["squarefull_lambda0"], 2.0, 1.0, 8)),
        _cli_job("expand_squarefull_16", sd, expand("squarefull", 16),
                 lambda a: _check_expand(a, sf_g, exp["squarefull_lambda0"], 2.0, 1.0, 16)),
        _cli_job("expand_two_squares_8", sd, expand("two_squares", 8),
                 lambda a: _check_expand(a, ts_g, exp["two_squares_lambda0"], 1.0, 0.5, 8)),
        _cli_job("main_term_squarefull", sd, main_term("squarefull", 1e12, 0.45),
                 lambda a: _check_main_term(a, sf_g, 2.0, 1.0)),
        _cli_job("main_term_two_squares", sd, main_term("two_squares", 1e8, 0.85),
                 lambda a: _check_main_term(a, ts_g, 1.0, 0.5)),
        Job("algebra_1e6", run_algebra, check_algebra),
        Job("truncated_inverse_phi_1e6", run_phi, check_phi),
    ]


BUILDERS = {"window": window_jobs, "contour": contour_jobs, "series": series_jobs}


def jobs(workload: str, sd, ref: dict, seed: int) -> list[Job]:
    return BUILDERS[workload](sd, ref, seed)
