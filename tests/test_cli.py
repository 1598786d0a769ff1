import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orlicz_polytope import estimators, orlicz
from orlicz_polytope.bodies import BodySpec, coordinate_marginal
from orlicz_polytope.cli import (
    RNG_ALGORITHM,
    ConfigError,
    dumps_json,
    fmt,
    load_config_file,
    main,
    parse_p,
)


# the options each subcommand reads, in the order of the config echo
KEEPS = {
    "estimate": ["p", "n", "N", "dir", "seed", "trials", "threads", "out"],
    "scan": ["p", "n", "N", "dir", "seed", "trials", "threads", "out"],
    "meanwidth": ["p", "n", "N", "seed", "trials", "dirs", "threads", "out"],
    "directions": ["p", "n", "N", "seed", "dirs", "out", "r"],
    "validate": ["seed", "out", "grid"],
    "tabulate-m": ["p", "n", "dir", "seed", "out"],
}
SHARED = ["p", "n", "N", "dir", "trials", "dirs", "threads", "r"]
DROPPED = [(c, f"--{k}") for c in KEEPS for k in SHARED if k not in KEEPS[c]]
GRID4 = ["--N", "100", "--N", "1000", "--N", "10000", "--N", "100000"]
# quick valid arguments for each subcommand
ARGS = {
    "estimate": ["estimate", "--p", "inf", "--n", "3", "--N", "2", "--trials", "0"],
    "scan": ["scan", "--p", "1", "--n", "5", *GRID4, "--trials", "0"],
    "meanwidth": ["meanwidth", "--p", "2", "--n", "5", *GRID4, "--trials", "0"],
    "directions": ["directions", "--p", "2", "--n", "3", "--N", "50"],
    "validate": ["validate", "--grid", "2; 2"],
    "tabulate-m": ["tabulate-m", "--p", "3", "--n", "4"],
}


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path / "out")])


def read_json(tmp_path, name):
    return json.loads((tmp_path / "out" / name).read_text())


class TestConfigParsing:
    def test_parse_p(self):
        assert parse_p("inf") == math.inf
        assert parse_p("2.5") == 2.5
        with pytest.raises(ConfigError):
            parse_p("0.5")
        with pytest.raises(ConfigError):
            parse_p("Infinity")
        with pytest.raises(ConfigError):
            parse_p("abc")

    def test_flat_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment\np = inf\nn = 4\nN = 100 1000 10000 100000\nseed = 3\n")
        data = load_config_file(str(cfg))
        assert data["p"] == "inf"
        assert data["N"] == "100 1000 10000 100000"

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p inf\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    @pytest.mark.parametrize("text", ["[1, 2]\n", '{"config": {"p": 3\n'], ids=["list", "truncated"])
    def test_json_config_not_an_object_exit_2(self, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert run(tmp_path, "estimate", "--config", str(cfg)) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORLICZ_POLYTOPE_SEED", "77")
        assert run(tmp_path, "estimate", "--p", "inf", "--n", "3", "--N", "2", "--trials", "0") == 0
        report = read_json(tmp_path, "report.json")
        assert report["seed"] == 77

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "1e-2"), ("--alpha", "99")])
    def test_removed_options_exit_2(self, tmp_path, flag, value):
        args = ["estimate", "--p", "inf", "--n", "3", "--N", "2", "--trials", "0"]
        assert run(tmp_path, *args, flag, value) == 2

    @pytest.mark.parametrize("command, flag", DROPPED, ids=[f"{c}{f}" for c, f in DROPPED])
    def test_unread_options_exit_2(self, tmp_path, command, flag):
        assert run(tmp_path, *ARGS[command], flag, "1") == 2

    @pytest.mark.parametrize("command", ["estimate", "directions"])
    def test_second_N_exit_2(self, tmp_path, command):
        assert run(tmp_path, *ARGS[command], "--N", "100000") == 2

    def test_directions_refuses_fewer_than_1000(self, tmp_path):
        assert run(tmp_path, *ARGS["directions"], "--dirs", "999") == 2

    @pytest.mark.parametrize("command", ["estimate", "scan", "meanwidth"])
    def test_one_trial_exit_2(self, tmp_path, command):
        # one MC trial would report a zero-width confidence interval
        assert run(tmp_path, *ARGS[command], "--trials", "1") == 2

    @pytest.mark.parametrize("dirs", ["0", "-5"])
    def test_meanwidth_refuses_fewer_than_1_direction(self, tmp_path, dirs):
        assert run(tmp_path, *ARGS["meanwidth"], "--dirs", dirs) == 2

    @pytest.mark.parametrize("command", sorted(KEEPS))
    def test_config_echo_lists_read_options(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv("ORLICZ_POLYTOPE_SEED", raising=False)
        assert run(tmp_path, *ARGS[command]) == 0
        manifest = read_json(tmp_path, "manifest.json")
        assert list(manifest["config"]) == ["command", *KEEPS[command]]
        assert manifest["per_step_seeds"] == {command: 0}

    def test_config_file_keys_outside_the_row_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 3\nn = 2\nN = 100 1000\ntrials = 7\nthreads = 0\nr = x\n")
        assert run(tmp_path, "validate", "--config", str(cfg), "--grid", "2; 2") == 0
        assert read_json(tmp_path, "manifest.json")["config"]["grid"] == "2; 2"

    def test_directions_defaults_to_1000(self, tmp_path):
        assert run(tmp_path, *ARGS["directions"]) == 0
        assert read_json(tmp_path, "summary.json")["n_dirs"] == 1000
        assert read_json(tmp_path, "manifest.json")["config"]["dirs"] == 1000

    def test_manifest_with_removed_keys_replays(self, tmp_path):
        args = ["estimate", "--p", "1.5", "--n", "10", "--N", "1000", "--trials", "0"]
        assert run(tmp_path, *args) == 0
        report = (tmp_path / "out" / "report.json").read_bytes()
        manifest = read_json(tmp_path, "manifest.json")
        assert "alpha" not in manifest["config"] and "rel_tol" not in manifest["config"]
        manifest["config"].update(alpha=4.0, rel_tol=1e-9)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert run(tmp_path, "estimate", "--config", str(old)) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == report

    def test_manifest_of_another_rng_exit_2(self, tmp_path, capsys):
        # its samples would differ, so it cannot replay byte for byte: the
        # Philox streams, and the SFC64 ones from before the coordinate
        # sampler drew p != 1 from a normal or a Gamma(1 + 1/p) and a uniform
        args = ["estimate", "--p", "1.5", "--n", "10", "--N", "1000", "--trials", "0"]
        assert run(tmp_path, *args) == 0
        manifest = read_json(tmp_path, "manifest.json")
        for rng in ("philox4x64/blake2b-derived-streams", "sfc64/seedsequence-of-blake2b-streams"):
            manifest["rng_algorithm"] = rng
            old = tmp_path / "old_manifest.json"
            old.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert run(tmp_path, "estimate", "--config", str(old)) == 2
            err = capsys.readouterr().err
            assert repr(rng) in err and repr(RNG_ALGORITHM) in err


class TestSerialization:
    def test_seventeen_digit_floats(self):
        text = dumps_json({"x": 1.0 / 3.0, "nested": [2.0, None]})
        assert "0.33333333333333331" in text
        assert "null" in text
        assert fmt(math.pi) == "3.1415926535897931"


class TestEstimateCommand:
    def test_cube_value(self, tmp_path):
        assert run(tmp_path, "estimate", "--p", "inf", "--n", "10", "--N", "2", "--dir", "e1", "--trials", "0") == 0
        report = read_json(tmp_path, "report.json")
        want = (1 + 0.5 - math.sqrt(1 + 0.25)) / 2
        assert report["orlicz_value"] == pytest.approx(want, rel=1e-8)
        assert report["mc_mean"] is None

    def test_with_mc(self, tmp_path):
        assert run(tmp_path, "estimate", "--p", "2", "--n", "4", "--N", "50", "--trials", "40", "--seed", "5") == 0
        report = read_json(tmp_path, "report.json")
        assert report["ratio"] == report["mc_mean"] / report["orlicz_value"]
        csv_lines = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "N,orlicz_value,mc_mean,ci_lo,ci_hi,ratio"

    def test_bad_p_exit_2(self, tmp_path):
        assert run(tmp_path, "estimate", "--p", "0.5", "--n", "4", "--N", "10") == 2

    def test_bad_direction_exit_2(self, tmp_path):
        assert run(tmp_path, "estimate", "--p", "2", "--n", "4", "--N", "10", "--dir", "e9") == 2

    def test_random_direction_takes_no_argument(self, tmp_path):
        # the direction is drawn from --seed; a suffix would be silently ignored
        assert run(tmp_path, "estimate", "--p", "2", "--n", "4", "--N", "10", "--dir", "random:7") == 2

    def test_replay_byte_identical(self, tmp_path):
        # wall times go to timings.json, so the report and manifest repeat exactly
        args = ["estimate", "--p", "1", "--n", "5", "--N", "200", "--trials", "6", "--seed", "3"]
        files = ("report.json", "report.csv", "manifest.json")
        assert run(tmp_path, *args) == 0
        first = {name: (tmp_path / "out" / name).read_bytes() for name in files}
        assert run(tmp_path, *args) == 0
        for name in files:
            assert (tmp_path / "out" / name).read_bytes() == first[name]
        timings = read_json(tmp_path, "timings.json")
        assert set(timings) == {"mc_s", "total_s"}
        assert timings["total_s"] >= timings["mc_s"] > 0

    def test_p1_at_large_n(self, tmp_path):
        # the support radius n/(2e) lies 3e6 times above the root
        assert run(tmp_path, "estimate", "--p", "1", "--n", "10000000", "--N", "100", "--trials", "0") == 0
        assert read_json(tmp_path, "report.json")["orlicz_value"] == pytest.approx(0.6227522774596, rel=5e-8)

    def test_lf_endings(self, tmp_path):
        run(tmp_path, "estimate", "--p", "inf", "--n", "3", "--N", "2", "--trials", "0")
        for name in ("report.json", "report.csv", "manifest.json", "timings.json"):
            assert b"\r" not in (tmp_path / "out" / name).read_bytes()


class TestScanCommand:
    GRID = ["--N", "100", "--N", "1000", "--N", "10000", "--N", "100000"]

    def test_crosspolytope_scan(self, tmp_path):
        assert run(tmp_path, "scan", "--p", "1", "--n", "30", *self.GRID, "--trials", "0", "--seed", "1") == 0
        fit = read_json(tmp_path, "fit.json")
        assert fit["exponent"] == pytest.approx(1.0, abs=0.15)
        scan_lines = (tmp_path / "out" / "scan.csv").read_text().strip().split("\n")
        assert scan_lines[0] == "N,orlicz,mc,ratio"
        assert len(scan_lines) == 5

    def test_single_N_exit_2(self, tmp_path):
        assert run(tmp_path, "scan", "--p", "1", "--n", "5", "--N", "100", "--trials", "0") == 2

    def test_N_of_one_exit_3(self, tmp_path, capsys):
        # log(log 1) = -inf: the fit refuses it as a numeric error
        grid = ["--N", "1", "--N", "10", "--N", "100", "--N", "1000"]
        assert run(tmp_path, "scan", "--p", "2", "--n", "3", *grid, "--trials", "0") == 3
        assert "log-log-N transform of the rows is not finite" in capsys.readouterr().err

    def test_N_of_one_draws_no_trial(self, tmp_path, capsys, monkeypatch):
        # the fit runs before the MC oracles, so the refusal costs no trial
        calls = []
        monkeypatch.setattr(estimators, "expected_support_mc", lambda *args: calls.append(args))
        grid = ["--N", "1", "--N", "10", "--N", "100", "--N", "1000"]
        assert run(tmp_path, "scan", "--p", "2", "--n", "3", *grid, "--trials", "200") == 3
        assert "log-log-N transform of the rows is not finite" in capsys.readouterr().err
        assert calls == []

    def test_manifest_replay_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["scan", "--p", "1", "--n", "5", *self.GRID, "--trials", "10", "--seed", "4"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main(["scan", "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in ("scan.csv", "fit.json", "plotdata.csv", "scan.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_thread_count_invariance(self, tmp_path):
        out_a = tmp_path / "t1"
        out_b = tmp_path / "t8"
        args = ["scan", "--p", "2", "--n", "4", *self.GRID, "--trials", "8", "--seed", "9"]
        assert main([*args, "--threads", "1", "--out", str(out_a)]) == 0
        assert main([*args, "--threads", "8", "--out", str(out_b)]) == 0
        for name in ("scan.csv", "fit.json", "plotdata.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestMeanWidthCommand:
    def test_ball_fit(self, tmp_path):
        assert run(
            tmp_path, "meanwidth", "--p", "2", "--n", "10",
            "--N", "100", "--N", "1000", "--N", "10000", "--N", "100000",
            "--trials", "0",
        ) == 0
        fit = read_json(tmp_path, "fit.json")
        assert fit["transform"] == "log-N"
        assert fit["r2"] >= 0.98


class TestDirectionsCommand:
    def test_ball_single_estimate(self, tmp_path):
        assert run(tmp_path, "directions", "--p", "2", "--n", "5", "--N", "100", "--dirs", "1000", "--seed", "2") == 0
        summary = read_json(tmp_path, "summary.json")
        assert summary["distinct_estimates"] == 1
        total = (
            summary["fraction_below_lower"]
            + summary["fraction_between"]
            + summary["fraction_above_upper"]
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        lines = (tmp_path / "out" / "directions.csv").read_text().strip().split("\n")
        assert len(lines) == 1001
        assert set(read_json(tmp_path, "timings.json")) == {"total_s"}

    def test_N_of_one_exit_3(self, tmp_path, capsys):
        # the calibration scale L_K sqrt(log N) is 0 at N = 1
        assert run(tmp_path, "directions", "--p", "2", "--n", "3", "--N", "1") == 3
        assert "N must be an integer of at least 2, got 1" in capsys.readouterr().err

    def test_large_p_table_is_finite_and_exact(self, tmp_path):
        # at p = 50 the grid's x = (tR)^-p reaches 1e-200; the stop-loss
        # quadrature is the oracle
        assert run(tmp_path, "tabulate-m", "--p", "50", "--n", "4", "--dir", "e1") == 0
        lines = (tmp_path / "out" / "m_table.csv").read_text().strip().split("\n")
        oracle = orlicz.from_tail(coordinate_marginal(BodySpec(50.0, 4)))
        for line in lines[1:]:
            t, m = (float(v) for v in line.split(","))
            assert math.isfinite(m)
            assert m == pytest.approx(oracle.eval(t), rel=1e-9, abs=0.0)


def test_import_loads_no_scipy():
    # scipy costs about 0.3 s of start-up per process; the package must not need it
    src = str(Path(orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, orlicz_polytope, orlicz_polytope.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_tracer_installs_and_public_names_resolve():
    # the benchmark's tracer wraps package functions by name, so deleting or
    # renaming one breaks every traced run; each module's __all__ must resolve,
    # and a traced closed-form check must reach the wrapped quadrature
    root = Path(orlicz.__file__).resolve().parents[2]
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, 'perfbench')",
        "import tracing, worker",
        "pkg = worker._import_package()",
        "for mod in vars(pkg).values():",
        "    missing = [name for name in getattr(mod, '__all__', ()) if not hasattr(mod, name)]",
        "    assert not missing, (mod.__name__, missing)",
        "tracer = tracing.Tracer()",
        "tracer.install(pkg)",
        "pkg.orlicz.representation_spread(2.0, 2, 0.5)",
        "assert tracer.metrics()['mathkit.quad_calls'] > 0, tracer.metrics()",
    ])
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


class TestValidateCommand:
    def test_default_grid_passes(self, tmp_path):
        assert run(tmp_path, "validate", "--grid", "1 2; 2 5", "--seed", "1") == 0
        report = read_json(tmp_path, "validate.json")
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "closed-form-consistency",
            "recursion-identity",
            "dual-involution",
            "sampler-ks",
        }

    def test_perturbation_hook_fails(self, tmp_path, monkeypatch):
        first = orlicz.m_pball_first
        monkeypatch.setattr(orlicz, "m_pball_first", lambda *args: 1.01 * first(*args))
        assert run(tmp_path, "validate", "--grid", "1 2; 2 5") == 1
        report = read_json(tmp_path, "validate.json")
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(c["name"] == "closed-form-consistency" for c in failed)

    def test_empty_grid_exit_2(self, tmp_path):
        assert run(tmp_path, "validate", "--grid", "") == 2

    def test_infinite_p_in_grid_exit_2(self, tmp_path, capsys):
        # the closed forms the grid feeds are defined for finite p only
        assert run(tmp_path, "validate", "--grid", "inf; 2") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err


class TestTabulateCommand:
    def test_writes_table(self, tmp_path):
        assert run(tmp_path, "tabulate-m", "--p", "inf", "--n", "4", "--dir", "e1") == 0
        lines = (tmp_path / "out" / "m_table.csv").read_text().strip().split("\n")
        assert lines[0] == "t,M"
        values = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert all(b >= a for (_, a), (_, b) in zip(values, values[1:]))
        assert set(read_json(tmp_path, "timings.json")) == {"total_s"}
