import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from sdlab import cli
from sdlab import intervals as iv

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def replace_runner(monkeypatch, name, fn):
    """Make subcommand `name` run fn in place of its runner."""
    monkeypatch.setitem(cli.SUBCOMMANDS, name, (fn, *cli.SUBCOMMANDS[name][1:]))


class TestRendering:
    def test_json_roundtrip_bit_exact(self):
        obj = {
            "a": 0.1,
            "b": [1, 2.5e-17, True, None, "x\"y\\z"],
            "c": {"nested": [math.pi, -0.0]},
        }
        text = cli.render_json(obj)
        back = json.loads(text)
        assert back["a"] == 0.1
        assert back["b"][1] == 2.5e-17
        assert back["c"]["nested"][0] == math.pi
        assert back["b"][4] == 'x"y\\z'

    def test_json_keys_sorted(self):
        text = cli.render_json({"zebra": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zebra"')

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cli.render_json({"x": float("nan")})


class TestCommands:
    def test_ddt_happy_path(self, tmp_path, capsys):
        out = tmp_path / "ddt.json"
        code, _, _ = run(["ddt", "--x", "2000", "--output", str(out)], capsys)
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["command"] == "ddt"
        assert artifact["config"]["x"] == 2000
        rows = artifact["records"]
        assert list(rows[0]) == ["abs_error", "empirical", "indicator", "predicted", "t", "theta", "x", "y"]
        assert len(rows) == 19

    def test_beta_predicted_column(self, tmp_path, capsys):
        from test_intervals import squarefull_law_oracle

        out = tmp_path / "beta.json"
        code, _, _ = run(
            [
                "beta",
                "--indicator",
                "squarefull",
                "--x",
                "100000",
                "--theta",
                "0.45",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        row = artifact["records"][5]
        assert row["predicted"] == pytest.approx(
            squarefull_law_oracle(row["t"]), abs=1e-12
        )

    def test_count_exit_codes(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["count", "--indicator", "squarefull", "--lo", "0", "--hi", "100"], capsys
        )
        assert code == 0
        assert json.loads(stdout)["records"][0]["count"] == 14

    def test_validation_failure_exit_2(self, capsys):
        code, _, err = run(
            ["count", "--indicator", "squarefull", "--lo", "50", "--hi", "10"], capsys
        )
        assert code == 2
        code, _, _ = run(["ddt"], capsys)  # missing --x
        assert code == 2
        code, _, err = run(["expand", "--app", "squarefull", "--order", "-1"], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_infinite_bound_exit_2(self, capsys):
        for args in (
            ["ddt", "--x", "inf"],
            ["count", "--indicator", "two_squares", "--lo", "0", "--hi", "inf"],
        ):
            code, _, err = run(args, capsys)
            assert code == 2
            assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("value, shown", [("nan", "NaN"), ("inf", "Infinity"), ("2.5", "2.5")])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["ddt"], "--x"),
            (["beta", "--indicator", "squarefull", "--theta", "0.45"], "--x"),
            (["count", "--indicator", "two_squares", "--hi", "100"], "--lo"),
            (["count", "--indicator", "two_squares", "--lo", "0"], "--hi"),
        ],
    )
    def test_whole_number_option_not_whole_exit_2(self, argv, option, value, shown, capsys, monkeypatch):
        # an option parsed as a float but run as an int rejects a value that
        # is no whole number by name, before its command runs
        def never(**values):
            raise AssertionError("a command ran")

        replace_runner(monkeypatch, argv[0], never)
        code, stdout, err = run([*argv, option, value], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: config {option[2:]!r} must be an integer, got {shown}\n"

    def test_expand_command(self, capsys):
        code, stdout, _ = run(["expand", "--app", "squarefull", "--order", "4"], capsys)
        assert code == 0
        artifact = json.loads(stdout)
        assert artifact["lambda0_closed_form"][0] == pytest.approx(
            1.0866271562597771, abs=1e-10
        )
        # the field repeats the order-0 lambda bit for bit
        lead = artifact["records"][0]
        assert artifact["lambda0_closed_form"] == [lead["lambda_re"], lead["lambda_im"]]
        assert [r["ell"] for r in artifact["records"]] == [0, 1, 2, 3, 4]

    def test_main_term_command(self, capsys):
        code, stdout, _ = run(
            [
                "main-term",
                "--app",
                "squarefull",
                "--x",
                "1e12",
                "--theta",
                "0.45",
                "--order",
                "0",
            ],
            capsys,
        )
        assert code == 0
        row = json.loads(stdout)["records"][0]
        assert row["value_re"] / row["y_prime"] == pytest.approx(
            1.0866271562597771, abs=1e-9
        )
        assert row["envelope_label"] == "reference shape"

    def test_sieve_table(self, tmp_path, capsys):
        out = tmp_path / "sieve.json"
        code, _, _ = run(["sieve", "--limit", "30", "--output", str(out)], capsys)
        assert code == 0
        rows = json.loads(out.read_text())["records"]
        assert [row["n"] for row in rows] == list(range(2, 31))
        assert rows[6] == {"n": 8, "spf": 2, "tau": 4, "mu": 0, "squarefull": 1, "two_squares": 1}

    def test_sieve_capacity_exit_2(self, capsys):
        for limit in ("20000000", "1000001"):
            code, _, _ = run(["sieve", "--limit", limit], capsys)
            assert code == 2

    def test_sieve_limit_below_2_exit_2(self, capsys):
        for limit in ("1", "0", "-3"):
            code, _, err = run(["sieve", "--limit", limit], capsys)
            assert code == 2
            assert err == f"error: sieve limit must be at least 2, got {limit}\n"

    @pytest.mark.parametrize("option", ["--instances", "--max-n", "--max-set"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_bombieri_counts_below_1_exit_2(self, option, value, capsys, monkeypatch):
        # rejected by name before any instance is drawn or checked
        from sdlab import contourlab

        def never(*args):
            raise AssertionError("an instance was checked")

        monkeypatch.setattr(contourlab, "bombieri_check_many", never)
        code, stdout, err = run(["bombieri", option, value], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {option} must be at least 1, got {value}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bombieri_sigma_min_non_finite_exit_2(self, value, capsys, monkeypatch):
        # rejected by name before any instance is drawn or checked
        from sdlab import contourlab

        def never(*args):
            raise AssertionError("an instance was checked")

        monkeypatch.setattr(contourlab, "bombieri_check_many", never)
        code, stdout, err = run(["bombieri", f"--sigma-min={value}"], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: --sigma-min must be finite, got {value}\n"

    def test_contour_defaults_are_the_config_defaults(self, capsys, monkeypatch):
        from sdlab import contourlab

        seen = []

        def capture(cfg, spec):
            seen.append(cfg)
            return {}

        monkeypatch.setattr(contourlab, "contour_report", capture)
        code, _, _ = run(["contour", "--T", "200"], capsys)
        assert code == 0
        want = contourlab.ContourConfig(T=200.0)
        for f in dataclasses.fields(contourlab.ContourConfig):
            got = getattr(seen[0], f.name)
            assert (type(got), got) == (type(getattr(want, f.name)), getattr(want, f.name)), f.name

    def test_format_option_gone_exit_2(self, capsys, monkeypatch):
        # every artifact is JSON: no command takes --format, and the parser
        # rejects it before anything is computed
        def never(**values):
            raise AssertionError("a command ran")

        for argv, _ in _PINNED:
            replace_runner(monkeypatch, argv[0], never)
            for fmt in ("json", "csv"):
                code, stdout, err = run([*argv, "--format", fmt], capsys)
                assert (code, stdout) == (2, ""), argv
                assert f"unrecognized arguments: --format {fmt}" in err

    def test_contour_nj_cap_rejected_before_zeta_work(self, capsys, monkeypatch):
        from sdlab import contourlab

        def never(*args, **kwargs):
            raise AssertionError("frak_m ran before the config check")

        monkeypatch.setattr(contourlab, "frak_m", never)
        code, _, err = run(["contour", "--T", "200", "--nj-cap", "0"], capsys)
        assert code == 2
        assert err.startswith("error:") and "nj_cap" in err

    @pytest.mark.parametrize(
        "option, value",
        [("--T", "nan"), ("--C0", "nan"), ("--psi", "nan"), ("--eta", "inf"), ("--epsilon", "nan")],
    )
    def test_contour_non_finite_rejected_before_zeta_work(self, option, value, capsys, monkeypatch):
        from sdlab import contourlab

        def never(*args, **kwargs):
            raise AssertionError("frak_m ran before the config check")

        monkeypatch.setattr(contourlab, "frak_m", never)
        # the last --T given wins
        code, stdout, err = run(["contour", "--T", "200", option, value], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {option[2:]} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "x, theta, message",
        [
            ("1e12", "nan", "need 0 <= y <= x^(1/kappa_1), got y = nan"),
            ("inf", "0.45", "x must be finite and at least 3, got inf"),
            ("nan", "0.45", "x must be finite and at least 3, got nan"),
        ],
    )
    def test_main_term_non_finite_rejected_before_expansion(self, x, theta, message, capsys, monkeypatch):
        from sdlab import sdexpand

        def never(*args, **kwargs):
            raise AssertionError("expansion_coeffs ran before the checks")

        monkeypatch.setattr(sdexpand, "expansion_coeffs", never)
        code, stdout, err = run(
            ["main-term", "--app", "squarefull", "--x", x, "--theta", theta], capsys
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "app, x, theta, cap",
        [
            ("squarefull", "1e200", "2", "0.5"),
            ("squarefull", "1e12", "0.6", "0.5"),
            ("two_squares", "1e12", "1.5", "1.0"),
        ],
    )
    def test_main_term_theta_above_cap_rejected_before_expansion(self, app, x, theta, cap, capsys, monkeypatch):
        # 1e200**2 overflowed with "(34, 'Numerical result out of range')"
        from sdlab import sdexpand

        def never(*args, **kwargs):
            raise AssertionError("expansion_coeffs ran before the checks")

        monkeypatch.setattr(sdexpand, "expansion_coeffs", never)
        code, stdout, err = run(["main-term", "--app", app, "--x", x, "--theta", theta], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: --theta must be at most 1/kappa_1 = {cap}, got {float(theta)}\n"

    def test_main_term_theta_within_tolerance_accepted(self, capsys):
        # y = 3^theta is within main_term's 1e-12 relative tolerance of 3^(1/2)
        code, stdout, err = run(
            ["main-term", "--app", "squarefull", "--x", "3", "--theta", "0.5000000000005"], capsys
        )
        assert (code, err) == (0, "")
        assert json.loads(stdout)["records"][0]["y"] == 3.0**0.5000000000005

    def test_accuracy_error_maps_to_exit_3(self, capsys, monkeypatch):
        from sdlab.errors import AccuracyError

        def boom(**values):
            raise AccuracyError("synthetic")

        replace_runner(monkeypatch, "ddt", boom)
        code, _, err = run(["ddt", "--x", "100"], capsys)
        assert code == 3
        assert "accuracy" in err

    def test_bombieri_beyond_the_correction_range_exit_3(self, tmp_path, capsys):
        # zeta at Re s ~ 2e12 has a nan Euler-Maclaurin tail estimate
        out = tmp_path / "b.json"
        code, stdout, err = run(
            ["bombieri", "--instances", "3", "--max-n", "5", "--max-set", "3",
             "--sigma-min", "1e12", "--output", str(out)],
            capsys,
        )
        assert (code, stdout) == (3, "")
        assert err.startswith("accuracy error: Euler-Maclaurin tail estimate nan")
        assert not out.exists()

    def test_bombieri_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                [
                    "bombieri",
                    "--instances",
                    "50",
                    "--seed",
                    "7",
                    "--output",
                    str(path),
                ],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["records"][0]["all_hold"] is True

    def test_deterministic_commands_reject_seed(self, capsys, monkeypatch):
        # --seed is an option of bombieri alone, the one command that draws
        def never(**values):
            raise AssertionError("a command ran")

        deterministic = [argv for argv, _ in _PINNED if argv[0] != "bombieri"]
        assert len(deterministic) == 7
        for argv in deterministic:
            replace_runner(monkeypatch, argv[0], never)
            code, stdout, err = run([*argv, "--seed", "0"], capsys)
            assert (code, stdout) == (2, ""), argv
            assert "unrecognized arguments: --seed 0" in err


def _typed(value):
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return (type(value), value)


_PINNED = [
    (["sieve", "--limit", "30"], {"command": "sieve", "limit": 30}),
    (
        ["ddt", "--x", "2e3", "--t-grid", "0.25,0.5"],
        {"command": "ddt", "x": 2000, "t_grid": [0.25, 0.5]},
    ),
    (
        ["beta", "--indicator", "two_squares", "--x", "1e4", "--theta", "0.9"],
        {"command": "beta", "indicator": "two_squares", "x": 10000, "theta": 0.9,
         "t_grid": list(iv.DEFAULT_T_GRID)},
    ),
    (
        ["count", "--indicator", "squarefull", "--lo", "1e3", "--hi", "2e3"],
        {"command": "count", "indicator": "squarefull", "lo": 1000, "hi": 2000},
    ),
    (
        ["main-term", "--app", "squarefull", "--x", "1e6", "--theta", "0.4"],
        {"command": "main_term", "app": "squarefull", "x": 1e6, "theta": 0.4,
         "order": 0},
    ),
    (
        ["expand", "--app", "squarefull", "--order", "3"],
        {"command": "expand", "app": "squarefull", "order": 3},
    ),
    (
        # C0 = 0.1 gives J_T = 2, and row 2 (sigma = 0.934 > 1 - epsilon) is
        # a high row, classified like the rows below it
        ["contour", "--T", "100", "--grid-density", "4", "--aprime", "5", "--C0", "0.1",
         "--eta", "8", "--psi", "2", "--epsilon", "0.1"],
        {"command": "contour", "T": 100.0, "epsilon": 0.1, "C0": 0.1,
         "Aprime": 5, "psi": 2.0, "eta": 8.0, "grid_density": 4, "nj_cap": 1000000,
         "chi_modulus": 4},
    ),
    (
        ["bombieri", "--instances", "5", "--sigma-min", "1.5", "--seed", "3"],
        {"command": "bombieri", "instances": 5, "max_n": 50, "max_set": 10,
         "sigma_min": 1.5, "seed": 3},
    ),
]


# command -> a config that verify accepts
_VALID = {config["command"]: config for _, config in _PINNED}


@pytest.mark.parametrize("argv, config", _PINNED, ids=[argv[0] for argv, _ in _PINNED])
def test_artifact_config_pinned(argv, config, monkeypatch, capsys):
    # the config each subcommand embeds, value types included: verify re-runs it
    artifacts = []
    run_command = cli.run_command
    monkeypatch.setattr(cli, "run_command", lambda c: artifacts.append(run_command(c)) or artifacts[-1])
    code, _, _ = run(argv, capsys)
    assert code == 0
    got = artifacts[0]["config"]
    assert got == config
    assert {k: _typed(v) for k, v in got.items()} == {k: _typed(v) for k, v in config.items()}


@pytest.mark.parametrize("argv", [argv for argv, _ in _PINNED], ids=[argv[0] for argv, _ in _PINNED])
def test_fresh_artifact_verifies(argv, tmp_path, capsys):
    # every file a run command writes is one that verify re-runs, and the
    # file holds the bytes the command writes to stdout
    out = tmp_path / "a.json"
    assert run([*argv, "--output", str(out)], capsys) == (0, "", "")
    assert run(["verify", "--golden", str(out)], capsys) == (0, "golden match\n", "")
    code, stdout, _ = run([*argv, "--output", "-"], capsys)
    assert (code, stdout.encode()) == (0, out.read_bytes())


@pytest.mark.parametrize("argv, config", _PINNED, ids=[argv[0] for argv, _ in _PINNED])
def test_runner_receives_exactly_its_options(argv, config, monkeypatch, capsys):
    # every option of a command's SUBCOMMANDS entry reaches its runner, and
    # nothing else: no option is set only to be dropped, and a config entry
    # that is no option (an older artifact's seed, say) is ignored
    name = argv[0]
    options = {kwargs["dest"] for _, kwargs, _ in cli.SUBCOMMANDS[name][2:]}
    seen = []
    replace_runner(monkeypatch, name, lambda **values: seen.append(values) or {"records": [{"n": 1}]})
    assert run(argv, capsys)[0] == 0
    cli.run_command({**_VALID[config["command"]], "seed": 0, "extra": 1})
    assert [set(values) for values in seen] == [options, options]


class TestGolden:
    def test_golden_only_on_verify(self, capsys, monkeypatch):
        # artifacts are compared with goldens through verify alone
        def never(**values):
            raise AssertionError("a command ran")

        for argv, _ in _PINNED:
            replace_runner(monkeypatch, argv[0], never)
            code, stdout, err = run([*argv, "--golden", "g.json"], capsys)
            assert (code, stdout) == (2, ""), argv
            assert "unrecognized arguments: --golden" in err

    def test_verify_subcommand(self, tmp_path, capsys):
        golden = tmp_path / "g.json"
        run(["count", "--indicator", "two_squares", "--lo", "0", "--hi", "1000", "--output", str(golden)], capsys)
        code, stdout, _ = run(["verify", "--golden", str(golden)], capsys)
        assert code == 0
        assert "match" in stdout
        # tamper and re-verify
        import re

        data = re.sub(r'"count":(\d+)', lambda m: f'"count":{int(m.group(1)) + 1}',
                      golden.read_text(), count=1)
        golden.write_text(data)
        code, _, _ = run(["verify", "--golden", str(golden)], capsys)
        assert code == 4

    def test_verify_missing_file(self, capsys):
        code, _, _ = run(["verify", "--golden", "/nonexistent/g.json"], capsys)
        assert code == 2

    def test_verify_file_not_json_exit_2(self, tmp_path, capsys):
        # a CSV table, as sdlab once wrote, is named as no JSON artifact
        golden = tmp_path / "counts.csv"
        golden.write_text("indicator,lo,hi,count\nsquarefull,0,100,14\n")
        code, stdout, err = run(["verify", "--golden", str(golden)], capsys)
        assert (code, stdout) == (2, "")
        assert err == (f"error: golden {golden} is not a JSON artifact "
                       "(Expecting value: line 1 column 1 (char 0))\n")

    @pytest.mark.parametrize("text", ["[1,2]", '{"config": 5}', '{"config": [1]}', "{}", '"x"'])
    def test_verify_golden_of_wrong_shape_exit_2(self, text, tmp_path, capsys):
        golden = tmp_path / "g.json"
        golden.write_text(text)
        code, _, err = run(["verify", "--golden", str(golden)], capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({**_VALID["sieve"], "limit": [1]}, "'limit' must be an integer, got [1]"),
            ({**_VALID["sieve"], "limit": None}, "'limit' must be an integer, got null"),
            ({**_VALID["ddt"], "t_grid": 5}, "'t_grid' must be a list of numbers, got 5"),
            ({**_VALID["sieve"], "limit": True}, "'limit' must be an integer, got true"),
            ({**_VALID["bombieri"], "seed": 1.5}, "'seed' must be an integer, got 1.5"),
            ({**_VALID["contour"], "T": "200"}, "'T' must be a number, got \"200\""),
            ({**_VALID["beta"], "indicator": 4}, "'indicator' must be a string, got 4"),
            ({"command": ["sieve"]}, "has no known command: ['sieve']"),
            ({k: v for k, v in _VALID["ddt"].items() if k != "t_grid"}, "has no 't_grid' entry"),
            ({**_VALID["beta"], "indicator": "prime"},
             "'indicator' must be one of squarefull, two_squares, got \"prime\""),
            ({**_VALID["main_term"], "app": "prime"},
             "'app' must be one of squarefull, two_squares, got \"prime\""),
            # a config names a command with "_" for "-", and never "verify"
            ({**_VALID["main_term"], "command": "main-term"}, "has no known command: 'main-term'"),
            ({**_VALID["ddt"], "command": "verify"}, "has no known command: 'verify'"),
            ({**_VALID["ddt"], "command": None}, "has no known command: None"),
        ],
    )
    def test_verify_golden_config_of_wrong_type_exit_2(self, config, message, tmp_path, capsys, monkeypatch):
        # a valid config with one entry changed, checked against the option
        # table before any command runs
        def never(**values):
            raise AssertionError("a command ran")

        for name in cli.SUBCOMMANDS:
            replace_runner(monkeypatch, name, never)
        golden = tmp_path / "g.json"
        golden.write_text(json.dumps({"config": config}))
        code, stdout, err = run(["verify", "--golden", str(golden)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: config {message}\n"

    @pytest.mark.parametrize(
        "name, argv, key",
        [
            ("contour_T200.json", ["contour", "--T", "200"], "c0"),
            ("expand_squarefull.json", ["expand", "--app", "squarefull"], "prime_limit"),
            ("expand_two_squares.json", ["expand", "--app", "two_squares"], "prime_limit"),
            ("beta_squarefull_1e8.json",
             ["beta", "--indicator", "squarefull", "--x", "1e8", "--theta", "0.45"], None),
            ("beta_two_squares_1e6.json",
             ["beta", "--indicator", "two_squares", "--x", "1e6", "--theta", "0.8"], None),
            ("count_two_squares_1e6.json",
             ["count", "--indicator", "two_squares", "--lo", "0", "--hi", "1e6"], None),
            ("ddt_1e5.json", ["ddt", "--x", "1e5"], None),
            ("main_term_squarefull_1e12.json",
             ["main-term", "--app", "squarefull", "--x", "1e12", "--theta", "0.45", "--order", "4"],
             None),
            ("sieve_100.json", ["sieve", "--limit", "100"], None),
            ("bombieri_1000_seed1.json", ["bombieri", "--seed", "1"], None),
        ],
    )
    def test_fresh_run_is_golden_without_removed_entry(self, name, argv, key, tmp_path, capsys):
        # goldens made while every command took --format and --seed, and
        # --c0 and --prime-limit existed: a fresh run makes the same bytes
        # less the "format" entry, the "seed" entry of a deterministic
        # command and that one other (the config object is flat, and spec.G
        # keeps its own prime_limit); bombieri takes --seed
        removed = [b'"format":'] if argv[0] == "bombieri" else [b'"format":', b'"seed":']
        if key:
            removed.append(f'"{key}":'.encode())
        golden = (GOLDEN / name).read_bytes()
        start = golden.index(b'"config":{') + len(b'"config":{')
        end = golden.index(b"}", start)
        entries = golden[start:end].split(b",")
        kept = [e for e in entries if not e.startswith(tuple(removed))]
        assert len(kept) == len(entries) - len(removed)
        out = tmp_path / "fresh.json"
        code, _, _ = run([*argv, "--output", str(out)], capsys)
        assert code == 0
        assert out.read_bytes() == golden[:start] + b",".join(kept) + golden[end:]

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_verifies(self, name, capsys):
        code, stdout, _ = run(["verify", "--golden", str(GOLDEN / name)], capsys)
        assert (code, stdout) == (0, "golden match\n")

    def test_goldens_verify_on_avx2_kernels(self):
        # numpy's AVX-512 and AVX2 kernels of real float64 exp, log and power
        # differ in the last bits; the variable makes numpy take its AVX2
        # kernels on an AVX-512 machine, and changes nothing on one without
        code = (
            "import sys\n"
            "from sdlab import cli\n"
            "failed = [g for g in sys.argv[1:] if cli.main(['verify', '--golden', g])]\n"
            "print('failed:', failed)\n"
        )
        goldens = sorted(str(p) for p in GOLDEN.glob("*.json"))
        env = dict(os.environ, PYTHONPATH=str(SRC), NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        proc = subprocess.run([sys.executable, "-c", code, *goldens], env=env, capture_output=True, text=True)
        assert len(goldens) == 10
        assert (proc.returncode, proc.stdout) == (0, "golden match\n" * 10 + "failed: []\n")

    @pytest.mark.parametrize(
        "name", ["expand_squarefull.json", "expand_two_squares.json", "main_term_squarefull_1e12.json"]
    )
    def test_series_golden_verifies_without_mpmath(self, name):
        # a fresh interpreter in which "import mpmath" fails
        code = (
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from sdlab import cli\n"
            f"sys.exit(cli.main(['verify', '--golden', {str(GOLDEN / name)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "golden match\n", "")
