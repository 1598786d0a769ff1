"""Smoke tests of the experiment scripts: each runs end to end at small
sizes, so a change to the CLI options they pass cannot break them silently."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exponent_scan(tmp_path, capsys):
    load("exponent_scan").run(n=10, trials=0, out=tmp_path, seed=0, threads=1)
    for p in ("1", "2", "4"):
        fit = json.loads((tmp_path / f"p{p}" / "fit.json").read_text())
        assert fit["transform"] == "log-log-N"
    assert "exponent" in capsys.readouterr().out


def test_mean_width_d2(tmp_path, capsys):
    load("mean_width_d2").run(n=10, trials=0, dirs=8, out=tmp_path, seed=0, threads=1)
    assert json.loads((tmp_path / "fit.json").read_text())["transform"] == "log-N"
    assert "slope" in capsys.readouterr().out


def test_direction_measure(tmp_path, capsys):
    load("direction_measure").run(p="2", n=5, N=100, r=1.0, dirs=1000, out=tmp_path, seed=0)
    assert json.loads((tmp_path / "summary.json").read_text())["n_dirs"] == 1000
    assert "upper-bound measure" in capsys.readouterr().out

