"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
with its measured quantities (use -rA or -s to see the lines for passing
tests).  Tolerances are pinned here and nowhere else."""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from sdlab import arith as ar
from sdlab import cli
from sdlab import contourlab as cl
from sdlab import intervals as iv
from sdlab import sdexpand as sd
from sdlab import specfun as sf
from sdlab.arith import KappaVector, quadratic_character

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_exact_convolution_identity():
    t0 = time.time()
    kv = KappaVector((2.0, 3.0))
    chis = (quadratic_character(3), quadratic_character(4))
    tau = ar.tau_chi_coeffs(10**5, kv, chis)
    tinv = ar.dirichlet_inverse(tau)
    conv = ar.dirichlet_convolve(tau, tinv)
    elapsed = time.time() - t0
    ok = (
        conv.exact
        and conv[1] == 1
        and not conv.values[2:].any()
        and elapsed < 30.0
    )
    report(1, "exact convolution identity n<=1e5", ok, f"{elapsed:.2f}s, exact int64")
    assert conv.exact
    assert conv[1] == 1
    assert not conv.values[2:].any()
    assert elapsed < 30.0


def test_criterion_02_truncated_inverse_identity():
    t0 = time.time()
    x = 10**3
    kv = KappaVector((2.0, 3.0))
    chis = (quadratic_character(3), quadratic_character(4))
    phi = ar.truncated_inverse_phi(x, 2 * x, kv, chis)
    tkk = ar.tau_kk_coeffs(2 * x, kv)
    bound = ar.dirichlet_convolve(tkk, tkk)
    elapsed = time.time() - t0
    head_ok = phi[1] == 1 and not phi.values[2 : x + 1].any()
    bound_ok = bool(np.all(np.abs(phi.values[x + 1 :]) <= bound.values[x + 1 :]))
    ok = head_ok and bound_ok and elapsed < 10.0
    report(2, "truncated-inverse identity x=1e3", ok, f"{elapsed:.2f}s")
    assert head_ok
    assert bound_ok
    assert elapsed < 10.0


def test_criterion_03_squarefull_main_term():
    t0 = time.time()
    x = 10**12
    spec = iv.IntervalSpec(x=x, theta=0.45, kappa1=2.0)
    count = len(iv.enumerate_squarefull(spec.lo, spec.hi))
    lam0 = sf.zeta_complex(1.5).real / (2.0 * sf.zeta_complex(3.0).real)
    rel = abs(count / spec.y_prime - lam0) / lam0
    elapsed = time.time() - t0
    ok = rel <= 0.05 and elapsed < 60.0
    report(
        3,
        "square-full main term x=1e12",
        ok,
        f"U={count}, U/y'={count / spec.y_prime:.6f}, lambda0={lam0:.6f}, "
        f"rel={rel:.4f}, {elapsed:.1f}s",
    )
    assert rel <= 0.05
    assert elapsed < 60.0


def test_criterion_04_landau_ramanujan_consistency():
    t0 = time.time()
    x = 10**8
    count = iv.count_two_squares(0, x)
    ratio = count * math.sqrt(math.log(x)) / x
    lam_right = sd.lambda0_closed_form(sd.two_squares_series_spec()).real
    lam_wrong = sd.lambda0_closed_form(
        sd.two_squares_series_spec(wrong_congruence=True)
    ).real
    dev_right = abs(ratio - lam_right) / lam_right
    dev_wrong = abs(ratio - lam_wrong) / lam_wrong
    elapsed = time.time() - t0
    ok = dev_right <= 0.05 and dev_wrong > 0.05 and elapsed < 300.0
    report(
        4,
        "Landau-Ramanujan consistency V(1e8)",
        ok,
        f"V={count}, ratio={ratio:.6f}, dev(p=3 mod 4)={dev_right:.4f} <= 0.05, "
        f"dev(p=1 mod 4)={dev_wrong:.4f} > 0.05, {elapsed:.1f}s",
    )
    if dev_wrong <= 0.20:
        # measured: dev(p=1 mod 4) = 0.0901; the parenthetical ">20% off"
        # magnitude quoted for the wrong-congruence failure is not attained:
        # the p=1 (mod 4) constant 0.7267 sits about 9% from
        # V(1e8) sqrt(log x) / x, far outside the 5% test but inside 20%.
        print(
            f"ACCEPTANCE 04 note: wrong-congruence deviation {dev_wrong:.4f} "
            f"fails the 5% test as required but is below the quoted 20% figure"
        )
    assert dev_right <= 0.05
    assert dev_wrong > 0.05
    assert elapsed < 300.0


def test_criterion_05_arcsine_law_decay_and_golden():
    t0 = time.time()
    sups = []
    for x in (10**4, 10**5, 10**6):
        sups.append(iv.ddt_mean(x).sup_error)
    elapsed = time.time() - t0
    decreasing = sups[0] > sups[1] > sups[2]
    golden = 0.015570315393930362
    golden_ok = abs(sups[2] - golden) <= 1e-9
    ok = decreasing and golden_ok and elapsed < 600.0
    report(
        5,
        "arcsine law decay",
        ok,
        f"sup={sups[0]:.6f} > {sups[1]:.6f} > {sups[2]:.6f}, golden diff "
        f"{abs(sups[2] - golden):.2e}, {elapsed:.1f}s",
    )
    assert decreasing
    assert golden_ok
    assert elapsed < 600.0


TWO_SQUARES_SUP_GOLDEN = {
    10**5: 0.044152761601552876,
    10**6: 0.020562144307323837,
    10**8: 0.010344863219288208,
}

# Sup distances to squarefull_divisor_law, recomputed independently of the
# package: exact integer tests d^20 <= n^k for t = k/20 and the law by
# scipy.integrate.quad over scipy.special.betainc.
SQUAREFULL_SUP_GOLDEN = {
    10**8: 0.0191125997,
    10**9: 0.0209089215,
    10**10: 0.0178891503,
}


def test_criterion_06_beta_law_two_squares():
    sups = {}
    for x in TWO_SQUARES_SUP_GOLDEN:
        spec = iv.IntervalSpec(x=x, theta=0.85, kappa1=1.0)
        sups[x] = iv.weighted_fn_mean("two_squares", spec).sup_error
    vals = [sups[x] for x in sorted(sups)]
    decreasing = vals[0] > vals[1] > vals[2]
    golden_ok = all(
        abs(sups[x] - TWO_SQUARES_SUP_GOLDEN[x]) <= 1e-9 for x in sups
    )
    ok = decreasing and golden_ok
    report(
        6,
        "beta law, two squares (x-grid 1e5,1e6,1e8 at theta=0.85)",
        ok,
        "sup=" + " > ".join(f"{v:.6f}" for v in vals),
    )
    assert decreasing
    assert golden_ok


def test_criterion_06_beta_law_squarefull():
    # The square-full law G (squarefull_divisor_law) is the law of V/2 + W
    # with (U, V, W) ~ Dirichlet(1/3, 1/3, 1/3); like every window mean of
    # F_n it satisfies G(t) + G(1-t) = 1.  The sup distance decays only net
    # along the x-grid.  It rises from 1e8 to 1e9 in a finite-size transient:
    # the largest deviation moves from the positive excess at t = 1/2 (the
    # tie mass of square n at d = sqrt(n)) to a negative one at t = 0.1-0.15.
    # The sup stays above its 1e8 value for every x from 6e8 to 1.7e9 and is
    # back below it from 2e9 on.
    sups = {}
    for x in SQUAREFULL_SUP_GOLDEN:
        spec = iv.IntervalSpec(x=x, theta=0.42, kappa1=2.0)
        sups[x] = iv.weighted_fn_mean("squarefull", spec).sup_error
    vals = [sups[x] for x in sorted(sups)]
    golden_ok = all(
        abs(sups[x] - SQUAREFULL_SUP_GOLDEN[x]) <= 1e-9 for x in sups
    )
    decays = vals[2] < vals[0]
    report(
        6,
        "square-full divisor law (x-grid 1e8,1e9,1e10 at theta=0.42)",
        decays and golden_ok,
        "sup=" + " , ".join(f"{v:.6f}" for v in vals)
        + f"; net decay sup(1e10) < sup(1e8): {decays}; goldens reproduce: {golden_ok}",
    )
    assert golden_ok
    assert decays


def test_criterion_07_expansion_coefficients():
    t0 = time.time()
    rng = np.random.default_rng(7)
    gamma0_ok = True
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = sd.gamma_coeffs(z, float(rng.uniform(1, 3)), 4)
        gamma0_ok &= abs(c[0] - 1.0) <= 1e-12
    euler = sd.gamma_coeffs(1.0, 1.0, 2)[1].real
    euler_ok = abs(euler - sd.stieltjes_constants(1)[0]) <= 1e-10
    lam_ok = True
    for spec in (sd.squarefull_series_spec(), sd.two_squares_series_spec()):
        closed = sd.lambda0_closed_form(spec)
        expanded = sd.expansion_coeffs(spec, order=8).lambda_ell[0]
        lam_ok &= abs(closed - expanded) <= 1e-8
    elapsed = time.time() - t0
    ok = gamma0_ok and euler_ok and lam_ok and elapsed < 10.0
    report(
        7,
        "expansion coefficients",
        ok,
        f"gamma0==1 x20, gamma1(1,1)={euler:.12f}, closed-form vs expansion "
        f"<=1e-8 on both specs, {elapsed:.1f}s",
    )
    assert gamma0_ok and euler_ok and lam_ok
    assert elapsed < 10.0


def test_criterion_08_special_function_suite():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst_refl = worst_dup = 0.0
    count = 0
    while count < 200:
        s = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
        if abs(s.imag) < 0.05:
            continue
        count += 1
        refl = sf.gamma_complex(s) * sf.gamma_complex(1 - s)
        worst_refl = max(
            worst_refl,
            abs(refl - math.pi / np.sin(math.pi * complex(s))) / max(1.0, abs(refl)),
        )
        dup = sf.gamma_complex(s) * sf.gamma_complex(s + 0.5)
        rhs = 2.0 ** (1 - 2 * s) * math.sqrt(math.pi) * sf.gamma_complex(2 * s)
        worst_dup = max(worst_dup, abs(dup - rhs) / max(1.0, abs(dup)))
    zeta2 = abs(sf.zeta_complex(2.0) - math.pi**2 / 6)
    chi4 = quadratic_character(4)
    l1 = abs(sf.dirichlet_l(1.0, chi4) - math.pi / 4)
    # Hurwitz decomposition consistency: direct series vs assembly
    from test_specfun import l_series_direct

    hw = max(
        abs(sf.dirichlet_l(complex(b, o), chi4) - l_series_direct(complex(b, o), chi4))
        for b in (0.5, 1.0, 2.0)
        for o in (0.0, 5.0, 50.0)
    )
    arc = max(
        abs(sf.reg_inc_beta(t, 0.5, 0.5) - (2 / math.pi) * math.asin(math.sqrt(t)))
        for t in iv.DEFAULT_T_GRID
    )
    elapsed = time.time() - t0
    ok = (
        worst_refl <= 1e-10
        and worst_dup <= 1e-10
        and zeta2 <= 1e-12
        and l1 <= 1e-10
        and hw <= 1e-9
        and arc <= 1e-10
        and elapsed < 5.0
    )
    report(
        8,
        "special-function identity suite",
        ok,
        f"refl={worst_refl:.1e}, dup={worst_dup:.1e}, zeta2={zeta2:.1e}, "
        f"L1={l1:.1e}, hurwitz={hw:.1e}, arcsine={arc:.1e}, {elapsed:.1f}s",
    )
    assert worst_refl <= 1e-10
    assert worst_dup <= 1e-10
    assert zeta2 <= 1e-12
    assert l1 <= 1e-10
    assert hw <= 1e-9
    assert arc <= 1e-10
    assert elapsed < 5.0


def test_criterion_09_bombieri_inequality():
    t0 = time.time()
    rng = random.Random(0)
    instances = []
    for _ in range(1000):
        n = rng.randint(1, 50)
        a = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        m = rng.randint(1, 10)
        pts = [
            complex(1.2 + rng.random(), (rng.random() - 0.5) * 100.0)
            for _ in range(m)
        ]
        instances.append((pts, a))
    violations = cl.bombieri_check_many(instances).count(False)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    report(
        9,
        "mean-value inequality on 1000 seeded instances",
        ok,
        f"violations={violations}, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_10_contour_structure():
    t0 = time.time()
    spec = sd.SeriesSpec(
        kappa=KappaVector((1.0,)),
        z=(1 + 0j,),
        w=(1 + 0j,),
        chis=(quadratic_character(4),),
        name="contour",
    )
    cfg = cl.ContourConfig(T=200.0, epsilon=0.05)
    grid = cl.build_grid(cfg, spec)
    # grid quantities match their defining formulas exactly
    lt = math.log(200.0)
    formulas_ok = (
        grid.delta_T == lt ** (-2.0 / 3.0) * math.log(lt) ** (-1.0 / 3.0)
        and grid.J_T == math.floor((0.5 - grid.delta_T) * lt)
        and grid.K_T == math.floor(200.0 / lt)
        and np.array_equal(grid.sigma, (0.5 + np.arange(grid.J_T + 2) / lt))
        and np.array_equal(grid.tau, 1.0 + np.arange(grid.K_T + 2) * lt)
    )
    cl.classify_boxes(grid)
    poly = cl.build_contour(grid)
    clear_ok = cl.contour_clear_of_marked(grid, poly)
    # stability under density doubling
    g16 = cl.build_grid(cl.ContourConfig(T=200.0, grid_density=16), spec)
    cl.classify_boxes(g16)
    stability = float((g16.classes == grid.classes).mean())
    # finiteness
    p31 = cl.check_prop31(poly, grid)
    finite_ok = math.isfinite(p31["max_upper_logratio"]) and math.isfinite(
        p31["max_lower_logratio"]
    )
    # byte-exact golden reproduction of the full CLI artifact
    golden_path = GOLDEN_DIR / "contour_T200.json"
    golden_bytes = golden_path.read_bytes()
    config = json.loads(golden_bytes)["config"]
    produced = cli.render_json(cli.run_command(config)).encode()
    golden_ok = produced == golden_bytes
    elapsed = time.time() - t0
    ok = formulas_ok and clear_ok and stability >= 0.99 and finite_ok and golden_ok
    report(
        10,
        "contour structure T=200",
        ok,
        f"formulas exact, contour clear={clear_ok}, stability={stability:.3f}, "
        f"prop31=({p31['max_upper_logratio']:.2f}, {p31['max_lower_logratio']:.2f}), "
        f"golden byte-exact={golden_ok}, {elapsed:.0f}s",
    )
    assert formulas_ok
    assert clear_ok
    assert stability >= 0.99
    assert finite_ok
    assert golden_ok
    assert elapsed < 30.0
