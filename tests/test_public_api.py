import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

from sdlab import arith, cli, contourlab, intervals, powerseries, sdexpand, specfun

SRC = pathlib.Path(__file__).parent.parent / "src"

MODULES = (
    "sdlab",
    "sdlab.arith",
    "sdlab.cli",
    "sdlab.contourlab",
    "sdlab.intervals",
    "sdlab.powerseries",
    "sdlab.sdexpand",
    "sdlab.specfun",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_merged_duplicates_stay_gone():
    # one coefficient-stream builder (arith.tau_chi_coeffs), one prime sieve
    # (arith.primes_upto), no uncalled truncated-series G, one way to mu;
    # one tolerance on the vector zeta and L functions instead of a knob
    # object, and one evaluation path (G.many) per regular factor
    assert not hasattr(contourlab, "zl_coeffs")
    assert not hasattr(sdexpand, "DirichletSeriesG")
    # one vector factor table (arith.factor_columns); the per-n path is the
    # tests' oracle (tests/oracles.py), not package API
    for name in (
        "FactorSieve", "build_sieve", "factorize", "divisors", "is_squarefull",
        "is_sum_two_squares", "divisor_cdf", "_SIEVE_GUARD",
    ):
        assert not hasattr(arith, name), name
    assert "sieve" not in inspect.signature(intervals.ddt_mean).parameters
    # mu, the scalar tau_kk and the per-member divisor logs only serve the
    # tests as oracles
    assert not hasattr(arith, "moebius_coeffs")
    assert not hasattr(arith, "tau_kk")
    assert not hasattr(intervals, "_divisor_logs")
    assert not hasattr(specfun, "EvalParams")
    assert not hasattr(specfun, "DEFAULT_PARAMS")
    # the Euler-Maclaurin kernel cuts its own blocks of rows: no generic row
    # helper, and no slicing of its batches by a caller
    assert not hasattr(specfun, "_over_row_shares")
    # Taylor series come from Euler-Maclaurin jets: no Cauchy ring, no ring
    # callable of the regular factor and no ring radius
    assert not hasattr(powerseries, "taylor_at")
    assert not hasattr(sdexpand, "_regular_factor")
    assert not hasattr(sdexpand, "_expansion_radius")
    assert not hasattr(contourlab, "_BOMBIERI_SLICE")
    assert not hasattr(sdexpand, "_one_point")
    # members nothing read or called: the Taylor radius, series addition and
    # the per-row frak_m table of a grid
    assert "radius_hint" not in {f.name for f in dataclasses.fields(powerseries.PowerSeries)}
    assert not hasattr(powerseries.PowerSeries, "__add__")
    assert not hasattr(powerseries.PowerSeries, "__radd__")
    assert "frak_m_values" not in {f.name for f in dataclasses.fields(contourlab.BoxGrid)}
    # one winding rule for every box row: no |zeta L M_N| threshold path, and
    # the Dirichlet polynomial takes its coefficient row per point
    assert not hasattr(contourlab, "m_series_coeffs")
    assert not hasattr(contourlab, "_classify_high_box")
    assert "sampled_min" not in {f.name for f in dataclasses.fields(contourlab.BoxGrid)}
    rows = inspect.signature(contourlab._dirichlet_poly).parameters["rows"]
    assert rows.default is inspect.Parameter.empty
    # arguments only tests set or nothing sets: the window engine takes its
    # chunks from the iterator it scans and reads the fixed _CHUNK, the
    # contour lab reads its grid's config, and principality comes from a
    # character's values
    for fn in (
        intervals.two_squares_count_and_masks,
        intervals._over_subranges,
        intervals._window_counts,
        intervals._mean_divisor_cdf,
    ):
        assert not {"masks", "chunk"} & set(inspect.signature(fn).parameters), fn
    # the window engine counts pairs by tau and rounds each sum once: no run
    # sums of 1/tau and no fsum compression of them
    assert not hasattr(intervals, "_window_partials")
    assert not hasattr(intervals, "_exact_terms")
    assert not hasattr(contourlab, "_dv")
    # no warning the contour lab raises, and none its CLI runner silences
    assert not hasattr(contourlab, "warnings")
    assert not hasattr(cli, "warnings")
    assert not hasattr(contourlab.ContourConfig, "describe")
    assert "cfg" not in inspect.signature(contourlab.build_contour).parameters
    assert "cfg" not in inspect.signature(contourlab.check_prop31).parameters
    assert "samples_per_segment" not in inspect.signature(contourlab.contour_clear_of_marked).parameters
    tops = inspect.signature(contourlab.BoxGrid.in_marked_region).parameters["tops"]
    assert tops.default is inspect.Parameter.empty
    assert "principal" not in {f.name for f in dataclasses.fields(arith.CharacterTable)}
    for cls in (sdexpand.ZetaCompositionG, sdexpand.EulerProductG):
        assert "__call__" not in vars(cls), cls
    for mod in (sdexpand, contourlab):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert "params" not in inspect.signature(obj).parameters, name
    tol = [
        name for name in specfun.__all__
        if inspect.isfunction(getattr(specfun, name))
        and "tol" in inspect.signature(getattr(specfun, name)).parameters
    ]
    assert tol == ["zeta_many", "dirichlet_l_many"]


def test_single_valued_settings_stay_gone():
    # settings that only ever took one value: frak_m's density-doubling gate
    # (build_grid always turned it off), the constant regular factor (G = None
    # is 1), the Euler-product cut P (a class constant), the contour's c0,
    # which nothing read, a series' growth constants delta, A and M (always
    # 0, 0 and 1), its bounds on |z_i| and |w_i| (read by no computation),
    # main_term's envelope label (one text) and cli's second command table;
    # and settings that changed no result: the seed of the seven
    # deterministic commands, three parameters that only tests set
    # (main_term's precomputed coefficients, expansion_coeffs' ring radius
    # and bombieri_check_many's explicit weights, with the one-instance
    # bombieri_check), and --format, with the CSV writer and the column
    # order it read
    assert "refine_check" not in inspect.signature(contourlab.frak_m).parameters
    assert not hasattr(sdexpand, "ConstantG")
    for fn in (sdexpand.two_squares_series_spec, sdexpand.EulerProductG):
        assert "prime_limit" not in inspect.signature(fn).parameters, fn
    assert sdexpand.EulerProductG.prime_limit == 10**5
    assert "c0" not in {f.name for f in dataclasses.fields(contourlab.ContourConfig)}
    flags = {flag for _, _, *options in cli.SUBCOMMANDS.values() for flag, *_ in options}
    assert not {"--prime-limit", "--c0"} & flags
    spec_fields = {f.name for f in dataclasses.fields(sdexpand.SeriesSpec)}
    assert not {"delta", "A", "M", "bounds_B", "bounds_C"} & spec_fields
    assert "envelope_label" not in {f.name for f in dataclasses.fields(sdexpand.MainTermResult)}
    assert not hasattr(cli, "COMMANDS")
    seeded = [name for name, (_, _, *options) in cli.SUBCOMMANDS.items()
              if "--seed" in {flag for flag, *_ in options}]
    assert seeded == ["bombieri"] and not hasattr(cli, "_SEED")
    assert "coeffs" not in inspect.signature(sdexpand.main_term).parameters
    assert "radius" not in inspect.signature(sdexpand.expansion_coeffs).parameters
    assert list(inspect.signature(contourlab.bombieri_check_many).parameters) == ["instances"]
    assert not hasattr(contourlab, "bombieri_check")
    assert not hasattr(cli, "render_csv") and not hasattr(intervals, "RECORD_FIELDS")
    (commands,) = [a.choices for a in cli._build_parser()._actions if isinstance(a.choices, dict)]
    assert len(commands) == 9
    assert not any("--format" in parser._option_string_actions for parser in commands.values())


# (module, name) of the limit laws and counts that a report or a count looks
# up in its module when it runs, so that a wrapper put on the module global
# (a tracer's, say) sees every call
_WRAPPED = (
    (intervals, "arcsine_law"),
    (intervals, "squarefull_divisor_law"),
    (specfun, "reg_inc_beta"),
    (intervals, "count_squarefull"),
    (intervals, "count_two_squares"),
)


def _count(indicator: str) -> dict:
    return cli.run_command({"command": "count", "indicator": indicator, "lo": 0, "hi": 1000})


_GRID = len(intervals.DEFAULT_T_GRID)


@pytest.mark.parametrize(
    "call, want, times",
    [
        (lambda: intervals.ddt_mean(2000), "arcsine_law", _GRID),
        (lambda: intervals.weighted_fn_mean(
            "two_squares", intervals.IntervalSpec(x=10**5, theta=0.5, kappa1=1.0)),
         "reg_inc_beta", _GRID),
        (lambda: intervals.weighted_fn_mean(
            "squarefull", intervals.IntervalSpec(x=10**6, theta=0.45, kappa1=2.0)),
         "squarefull_divisor_law", _GRID),
        (lambda: _count("squarefull"), "count_squarefull", 1),
        (lambda: _count("two_squares"), "count_two_squares", 1),
    ],
    ids=["ddt", "two_squares", "squarefull", "count_squarefull", "count_two_squares"],
)
def test_laws_and_counts_reach_module_wrappers(call, want, times, monkeypatch):
    # each law once per grid point, each count once; calls made inside a
    # wrapped call (the square-full law's reg_inc_beta, its reflection
    # t -> 1 - t) are not counted
    calls, active = [], []

    def wrap(fn, name):
        def counted(*args, **kwargs):
            if not active:
                calls.append(name)
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return counted

    for module, name in _WRAPPED:
        monkeypatch.setattr(module, name, wrap(getattr(module, name), name))
    call()
    assert calls == [want] * times


def test_runtime_needs_no_mpmath():
    # the Stieltjes constants are a table, so mpmath is a test-only dependency
    code = "import sys, sdlab.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
    importers = [
        path.name for path in (SRC / "sdlab").glob("*.py")
        if re.search(r"^\s*(import|from)\s+mpmath\b", path.read_text(), re.MULTILINE)
    ]
    assert importers == []


def test_cli_import_loads_only_numpy_beyond_the_stdlib():
    # every sdlab invocation pays for what `import sdlab.cli` loads, against
    # what a bare interpreter has loaded at start
    code = (
        "import sys; before = set(sys.modules); import sdlab.cli; "
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    added = set(ast.literal_eval(proc.stdout))
    assert {"numpy", "sdlab"} <= added
    assert added - set(sys.stdlib_module_names) - {"numpy", "sdlab"} == set()


# numpy's float64 kernels of these ufuncs give different last bits under its
# AVX-512 and AVX2 dispatch targets
_DISPATCH_SENSITIVE = {"exp", "log", "power", "log1p", "expm1", "arctan2", "exp2"}
# every use of one of them in the package: module, source of the call, and
# why its bits do not depend on the dispatch target
_SAFE_UFUNC_CALLS = [
    ("sdexpand", "np.exp(-self.a * v * lp)", "complex argument (v is a complex node)"),
    ("sdexpand", "np.log1p(-np.exp(-self.a * v * lp))", "complex argument"),
    ("specfun", "np.exp(t, out=t)", "complex argument (t is the outer product of complex128 s)"),
    ("specfun", "np.exp(-np.multiply.outer(s.real, log_d).astype(np.complex128))",
     "complex argument"),
    ("specfun", "np.log(M + 1.0)", "feeds only the choice of the extended path"),
    ("specfun", "np.log(np.arange(groups[-1][2], dtype=np.longdouble) + np.longdouble(w))",
     "longdouble argument"),
    ("specfun", "np.log(np.longdouble(M) + np.longdouble(w))", "longdouble argument"),
    ("specfun", "np.exp(-s * math.log(frac))", "complex argument (s is complex128)"),
    ("specfun", "np.exp(-s * math.log(a))", "complex argument (s is complex128)"),
    ("specfun", "np.exp(-s * math.log(q))", "complex argument (s is complex128)"),
    ("contourlab", "np.exp(-block * logn[r])", "complex argument (block holds complex s)"),
]


def test_dispatch_sensitive_ufuncs_are_allow_listed():
    # a new call of one of these ufuncs on a real float64 array would make an
    # artifact's bits depend on the CPU; each call must be listed above
    found = []
    for path in sorted((SRC / "sdlab").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found.append((path.stem, ast.get_source_segment(text, node)))
            if isinstance(node, ast.Import):
                assert all(a.asname == "np" for a in node.names if a.name == "numpy"), path
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
                and node.attr in _DISPATCH_SENSITIVE
            ):
                site = calls.get(id(node), node)
                found.append((path.stem, ast.get_source_segment(text, site)))
    assert sorted(found) == sorted((mod, call) for mod, call, _ in _SAFE_UFUNC_CALLS)
