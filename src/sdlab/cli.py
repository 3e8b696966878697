"""Command-line front end: one subcommand per experiment family, deterministic
JSON emission, and golden-file verification.

SUBCOMMANDS declares each command, its runner and its options once.
run_command checks a config against it and converts the values (_options) on
every path, then embeds the config, exactly as given, in the artifact:
`verify` re-executes it for byte-exact comparison, and is the one command
that reads a golden.  Every option reaches the runner, and only bombieri,
which draws its instances from the Mersenne Twister, takes --seed.  Every
artifact is JSON with its config, so `verify` can re-run any file written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import typing

from . import arith, contourlab, intervals, sdexpand
from .errors import AccuracyError, CapacityError, DomainError, ToolkitError

__all__ = ["main", "run_command", "render_json"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCURACY = 3
EXIT_GOLDEN = 4


# ----------------------------------------------------------------------------
# Deterministic rendering
# ----------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in artifact")
    return format(x, ".17g")


def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _render(str(key), out)
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot render {type(obj)!r}")


def render_json(obj) -> str:
    """Sorted keys, floats at 17 significant digits (round-trip exact)."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out) + "\n"


# ----------------------------------------------------------------------------
# Command runners (option values in, artifact body out)
# ----------------------------------------------------------------------------

# application name -> its series spec, which also gives kappa_1 of its window
_SERIES = {
    "squarefull": sdexpand.squarefull_series_spec,
    "two_squares": sdexpand.two_squares_series_spec,
}


def _law_artifact(report: intervals.LawReport) -> dict:
    return {
        "summary": {
            "count": report.count,
            "sup_error": report.sup_error,
        },
        "records": report.records(),
    }


# n per block of rows: the columns become lists a block at a time, into a row
# list allocated once, so the peak RSS stays near that of the rows alone
_ROW_BLOCK = 2**16


def run_sieve(limit: int) -> dict:
    if limit > 10**6:
        raise CapacityError("sieve table emission capped at 1e6")
    cols = arith.factor_columns(limit)
    rows = [None] * (limit - 1)
    for s in range(0, limit - 1, _ROW_BLOCK):
        blocks = [cols[k][s : s + _ROW_BLOCK].tolist() for k in cols]
        rows[s : s + _ROW_BLOCK] = [
            {"n": n, "spf": p, "tau": tau, "mu": mu, "squarefull": sf, "two_squares": ts}
            for n, p, tau, mu, sf, ts in zip(range(s + 2, limit + 1), *blocks)
        ]
    return {"records": rows}


def run_ddt(x: int, t_grid: list) -> dict:
    report = intervals.ddt_mean(x, t_grid)
    return _law_artifact(report)


def run_beta(indicator: str, x: int, theta: float, t_grid: list) -> dict:
    spec = intervals.IntervalSpec(
        x=x, theta=theta, kappa1=_SERIES[indicator]().kappa1
    )
    report = intervals.weighted_fn_mean(indicator, spec, t_grid)
    return _law_artifact(report)


def run_count(indicator: str, lo: int, hi: int) -> dict:
    if indicator == "squarefull":
        count = intervals.count_squarefull(lo, hi)
    else:
        count = intervals.count_two_squares(lo, hi)
    return {
        "records": [{"indicator": indicator, "lo": lo, "hi": hi, "count": count}],
    }


def run_expand(app: str, order: int) -> dict:
    spec = _SERIES[app]()
    coeffs = sdexpand.expansion_coeffs(spec, order=order)
    lambda0 = sdexpand.lambda0_closed_form(spec)
    return {
        "spec": spec.describe(),
        "lambda0_closed_form": [lambda0.real, lambda0.imag],
        "records": coeffs.records(),
    }


def run_main_term(app: str, x: float, theta: float, order: int) -> dict:
    spec = _SERIES[app]()
    # main_term takes y up to x^(1/kappa_1) (1 + 1e-12) with x >= 3, so no
    # theta above 1/kappa_1 + 1e-12 gets through it; rejecting those here
    # names the option before x**theta can overflow (NaN goes on to main_term)
    if theta > 1.0 / spec.kappa1 + 1e-12:
        raise DomainError(f"--theta must be at most 1/kappa_1 = {1.0 / spec.kappa1}, got {theta}")
    y = x**theta
    result = sdexpand.main_term(spec, x, y, order)
    return {
        "spec": spec.describe(),
        "records": [
            {
                "x": x,
                "y": y,
                "order": order,
                "value_re": result.value.real,
                "value_im": result.value.imag,
                "y_prime": result.y_prime,
                "envelope": result.envelope,
                "envelope_label": "reference shape",
            }
        ],
    }


def run_contour(chi_modulus: int, **fields) -> dict:
    cfg = contourlab.ContourConfig(**fields)
    spec = sdexpand.SeriesSpec(
        kappa=arith.KappaVector((1.0,)),
        z=(1.0 + 0j,),
        w=(1.0 + 0j,),
        chis=(arith.quadratic_character(chi_modulus),),
        name="contour",
    )
    return contourlab.contour_report(cfg, spec)


def run_bombieri(seed: int, instances: int, max_n: int, max_set: int, sigma_min: float) -> dict:
    for flag, value in (("--instances", instances), ("--max-n", max_n), ("--max-set", max_set)):
        if value < 1:
            raise DomainError(f"{flag} must be at least 1, got {value}")
    if not math.isfinite(sigma_min):
        raise DomainError(f"--sigma-min must be finite, got {sigma_min}")
    rng = random.Random(seed)
    drawn = []
    for _ in range(instances):
        n = rng.randint(1, max_n)
        a = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        npts = rng.randint(1, max_set)
        pts = [
            complex(sigma_min + rng.random(), (rng.random() - 0.5) * 100.0)
            for _ in range(npts)
        ]
        drawn.append((pts, a))
    violations = contourlab.bombieri_check_many(drawn).count(False)
    return {
        "records": [
            {
                "instances": instances,
                "violations": violations,
                "all_hold": violations == 0,
            }
        ],
    }


def run_command(config: dict) -> dict:
    """Run config's command on its options' values (_options) and add the
    command and the config, exactly as given, to the artifact."""
    command, run, values = _options(config)
    return {**run(**values), "command": command, "config": config}


# ----------------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------------

def _opt(flag: str, kind=None, **kwargs) -> tuple:
    """One option: its flag, its argparse keywords, whose dest is the config
    key, and the kind of value its config entry holds (int, float, str or
    list): by default the parsed type."""
    kwargs.setdefault("dest", flag[2:].replace("-", "_"))
    return flag, kwargs, kind or kwargs.get("type", str)


def _fields_opts(cls, **flags) -> list:
    """One option per field of the dataclass cls, typed and defaulted as the
    field (required if it has no default); flags renames a field's --name."""
    hints = typing.get_type_hints(cls)
    return [
        _opt(flags.get(f.name, "--" + f.name.replace("_", "-")), type=hints[f.name], dest=f.name,
             required=f.default is dataclasses.MISSING, default=f.default)
        for f in dataclasses.fields(cls)
    ]


def _whole(text: str):
    """A whole number as an int, also from 1e6; any other stays a float."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _parse_t_grid(spec: str):
    if spec == "default":
        return list(intervals.DEFAULT_T_GRID)
    return [float(x) for x in spec.split(",") if x.strip()]


_INDICATOR = _opt("--indicator", choices=tuple(_SERIES), required=True)
_APP = _opt("--app", choices=tuple(_SERIES), required=True)
_X_INT = _opt("--x", int, type=_whole, required=True)
_THETA = _opt("--theta", type=float, required=True)
_T_GRID = _opt("--t-grid", list, type=_parse_t_grid, default="default")

# subcommand -> (runner, help, *options); the config holds the command, with
# "_" for "-", and one entry per option
SUBCOMMANDS = {
    "sieve": (
        run_sieve, "factor table with indicator columns",
        _opt("--limit", type=int, required=True),
    ),
    "ddt": (run_ddt, "Cesaro mean of F_n against the arcsine law", _X_INT, _T_GRID),
    "beta": (
        run_beta, "indicator-weighted F_n means vs their limit law: I_t(1/4, 1/4) for "
        "two squares, the square-full divisor law G for square-full n",
        _INDICATOR, _X_INT, _THETA, _T_GRID,
    ),
    "count": (
        run_count, "exact indicator counts in a window", _INDICATOR,
        _opt("--lo", int, type=_whole, required=True),
        _opt("--hi", int, type=_whole, required=True),
    ),
    "main-term": (
        run_main_term, "predicted short-interval main term",
        _APP, _opt("--x", type=float, required=True), _THETA,
        _opt("--order", type=int, default=0),
    ),
    "expand": (
        run_expand, "expansion coefficient table",
        _APP, _opt("--order", type=int, default=8),
    ),
    "contour": (
        run_contour, "box grid, classes, contour, envelopes",
        *_fields_opts(contourlab.ContourConfig, Aprime="--aprime"),
        _opt("--chi-modulus", type=int, default=4),
    ),
    "bombieri": (
        run_bombieri, "randomized mean-value inequality check",
        _opt("--instances", type=int, default=1000),
        _opt("--max-n", type=int, default=50),
        _opt("--max-set", type=int, default=10),
        _opt("--sigma-min", type=float, default=1.2),
        _opt("--seed", type=int, default=0),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdlab",
        description="Short-interval arithmetic statistics toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, *options) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs, _ in options:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--output", default="-", help="output path, '-' = stdout")
    sp = sub.add_parser("verify", help="re-run a golden artifact's config and diff")
    sp.add_argument("--golden", required=True)
    return p


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# kind -> (test of a JSON value, its name); a float entry may hold an
# integer, and kind(value) converts an entry that passes
_KINDS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers"),
}


def _options(config: dict) -> tuple[str, typing.Callable, dict]:
    """config's command, its runner and its options' values, converted to
    their kinds, once config is found to hold each option, of its kind and
    in its choices.  Entries that are no option of the command (such as the
    seed of a deterministic command in an older artifact) are ignored."""
    command = config.get("command")
    name = command.replace("_", "-") if isinstance(command, str) and "-" not in command else None
    if name not in SUBCOMMANDS:
        raise DomainError(f"config has no known command: {command!r}")
    run, _, *options = SUBCOMMANDS[name]
    values = {}
    for _, kwargs, kind in options:
        key = kwargs["dest"]
        if key not in config:
            raise DomainError(f"config has no {key!r} entry")
        value = config[key]
        holds, name = _KINDS[kind]
        if not holds(value):
            raise DomainError(f"config {key!r} must be {name}, got {json.dumps(value)}")
        if "choices" in kwargs and value not in kwargs["choices"]:
            choices = ", ".join(kwargs["choices"])
            raise DomainError(f"config {key!r} must be one of {choices}, got {json.dumps(value)}")
        values[key] = kind(value)
    return command, run, values


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        if args.command != "verify":
            config = {"command": args.command.replace("-", "_")}
            for _, kwargs, _ in SUBCOMMANDS[args.command][2:]:
                config[kwargs["dest"]] = getattr(args, kwargs["dest"])
            text = render_json(run_command(config))
            if args.output and args.output != "-":
                with open(args.output, "wb") as fh:
                    fh.write(text.encode())
            else:
                sys.stdout.write(text)
            return EXIT_OK
        with open(args.golden, "rb") as fh:
            expected = fh.read()
        try:
            doc = json.loads(expected)
        except ValueError as exc:
            raise DomainError(f"golden {args.golden} is not a JSON artifact ({exc})") from None
        config = doc.get("config") if isinstance(doc, dict) else None
        if not isinstance(config, dict):
            raise DomainError("golden must be a JSON object with a config object")
        if render_json(run_command(config)).encode() != expected:
            sys.stderr.write("golden mismatch\n")
            return EXIT_GOLDEN
        sys.stdout.write("golden match\n")
        return EXIT_OK
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy error: {exc}\n")
        return EXIT_ACCURACY
    except (ToolkitError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
