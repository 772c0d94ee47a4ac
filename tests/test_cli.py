"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wqisa.cli import cli_main
from wqisa.io import RunConfig, read_cloud, write_cloud, write_config
from wqisa.synthetic import hemisphere_cloud, perturb


@pytest.fixture
def cloud_file(tmp_path):
    cloud = perturb(hemisphere_cloud(300, seed=1), noise_std=0.05, seed=2)
    path = tmp_path / "cloud.xyz"
    write_cloud(path, cloud)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    write_config(RunConfig(k_grid=(1, 2, 3), max_iterations=6, seed=7), path)
    return path


class TestSplitCommand:
    def test_writes_three_files_with_expected_sizes(self, tmp_path, cloud_file):
        prefix = tmp_path / "parts"
        code = cli_main(
            ["split", "--cloud", str(cloud_file), "--out-prefix", str(prefix), "--seed", "3"]
        )
        assert code == 0
        sizes = [
            read_cloud(f"{prefix}_{name}.xyz").shape[0]
            for name in ("train", "validation", "test")
        ]
        assert sizes == [150, 75, 75]


class TestFitCommand:
    def test_fit_produces_surface_and_report(self, tmp_path, cloud_file, config_file):
        surface_path = tmp_path / "surface.json"
        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "fit",
                "--cloud", str(cloud_file),
                "--config", str(config_file),
                "--surface-out", str(surface_path),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 1 <= len(report["report"]["iterations"]) <= 15
        assert report["report"]["stop_reason"] in (
            "gmse_increased",
            "max_iterations",
            "threshold_met",
            "stagnated",
        )
        assert report["config"]["seed"] == 7
        assert surface_path.exists()

    def test_fixed_seed_reports_are_byte_identical(self, tmp_path, cloud_file, config_file):
        outputs = []
        for tag in ("a", "b"):
            surface_path = tmp_path / f"surface_{tag}.json"
            report_path = tmp_path / f"report_{tag}.json"
            assert (
                cli_main(
                    [
                        "fit",
                        "--cloud", str(cloud_file),
                        "--config", str(config_file),
                        "--surface-out", str(surface_path),
                        "--report-out", str(report_path),
                    ]
                )
                == 0
            )
            outputs.append((surface_path.read_bytes(), report_path.read_bytes()))
        assert outputs[0] == outputs[1]


class TestEvalCommand:
    def test_perfect_fit_scores_zero(self, tmp_path):
        # constant cloud: the fitted surface reproduces it exactly
        rng = np.random.default_rng(4)
        cloud = np.column_stack([rng.uniform(0, 1, size=(64, 2)), np.full(64, 1.5)])
        cloud_path = tmp_path / "c.xyz"
        write_cloud(cloud_path, cloud)
        config_path = tmp_path / "run.cfg"
        write_config(RunConfig(k_grid=(2,), max_iterations=3, seed=1), config_path)
        surface_path = tmp_path / "s.json"
        report_path = tmp_path / "r.json"
        assert (
            cli_main(
                [
                    "fit",
                    "--cloud", str(cloud_path),
                    "--config", str(config_path),
                    "--surface-out", str(surface_path),
                    "--report-out", str(report_path),
                ]
            )
            == 0
        )
        eval_path = tmp_path / "eval.json"
        assert (
            cli_main(
                [
                    "eval",
                    "--surface", str(surface_path),
                    "--cloud", str(cloud_path),
                    "--out", str(eval_path),
                ]
            )
            == 0
        )
        payload = json.loads(eval_path.read_text())
        assert payload["stats"]["mse"] == 0.0
        # the set-to-set distance also sees planar gaps to the sample grid,
        # so it is positive even for a perfect height fit
        assert 0.0 <= payload["hausdorff"] < 0.5


class TestCompareCommand:
    def test_both_methods_reported_finite(self, tmp_path, cloud_file, config_file):
        out = tmp_path / "compare.json"
        code = cli_main(
            [
                "compare",
                "--cloud", str(cloud_file),
                "--config", str(config_file),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for method in ("wqisa", "mba"):
            block = payload[method]
            assert np.isfinite(block["validation_gmse"])
            assert np.isfinite(block["punctual"]["mse"])
            assert np.isfinite(block["hausdorff"])
            assert block["iterations"] >= 1


class TestSampleCommand:
    def test_two_by_two_grid(self, tmp_path, cloud_file, config_file):
        surface_path = tmp_path / "s.json"
        report_path = tmp_path / "r.json"
        cli_main(
            [
                "fit",
                "--cloud", str(cloud_file),
                "--config", str(config_file),
                "--surface-out", str(surface_path),
                "--report-out", str(report_path),
            ]
        )
        grid_path = tmp_path / "g.csv"
        code = cli_main(
            ["sample", "--surface", str(surface_path), "--resolution", "2x2", "--out", str(grid_path)]
        )
        assert code == 0
        grid = read_cloud(grid_path)
        assert grid.shape == (4, 3)


class TestSynthCommand:
    def test_writes_cloud(self, tmp_path):
        out = tmp_path / "h.xyz"
        code = cli_main(["synth", "--n", "500", "--seed", "9", "--out", str(out)])
        assert code == 0
        cloud = read_cloud(out)
        assert cloud.shape == (500, 3)

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "h.xyz"
        cli_main(["synth", "--n", "50", "--seed", "3", "--out", str(out)])
        np.testing.assert_array_equal(read_cloud(out), hemisphere_cloud(50, seed=3))


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert cli_main(["frobnicate"]) == 1
        assert cli_main(["fit", "--cloud", "x.xyz"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        # a missing file, and a directory where a file is read or written
        for argv in (
            ["split", "--cloud", str(tmp_path / "missing.xyz"), "--out-prefix", str(tmp_path / "p")],
            ["split", "--cloud", str(tmp_path), "--out-prefix", str(tmp_path / "p")],
            ["synth", "--n", "20", "--out", str(tmp_path)],
        ):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_nan_synth_options_are_two(self, tmp_path, capsys):
        out = tmp_path / "h.xyz"
        for option in ("--noise-std", "--outlier-fraction", "--outlier-scale"):
            argv = ["synth", "--n", "50", option, "nan", "--out", str(out)]
            assert cli_main(argv) == 2
            assert option[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_zero_width_cloud_is_two(self, tmp_path, config_file, capsys, command):
        # a vertical line: every point has the same x
        t = np.linspace(0.0, 1.0, 40)
        path = tmp_path / "line.xyz"
        write_cloud(path, np.column_stack([np.full(40, 0.5), t, t * t]))
        argv = [command, "--cloud", str(path), "--config", str(config_file)]
        if command == "fit":
            argv += ["--surface-out", str(tmp_path / "s.json"), "--report-out", str(tmp_path / "r.json")]
        else:
            argv += ["--out", str(tmp_path / "c.json")]
        assert cli_main(argv) == 2
        assert "zero width in x;" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "width, config",
        [
            (1e300, RunConfig(weight="idw")),
            (1e170, RunConfig(weight="gaussian", sigma_grid=(0.3e170,))),
        ],
        ids=["idw", "gaussian"],
    )
    def test_overflowing_cloud_is_two(self, tmp_path, capsys, width, config):
        rng = np.random.default_rng(11)
        path = tmp_path / "wide.xyz"
        cloud = np.column_stack([rng.uniform(0, width, 50), rng.uniform(0, 1, size=(50, 2))])
        write_cloud(path, cloud)
        write_config(dataclasses.replace(config, max_iterations=3), tmp_path / "run.cfg")
        argv = [
            "fit", "--cloud", str(path), "--config", str(tmp_path / "run.cfg"),
            "--surface-out", str(tmp_path / "s.json"), "--report-out", str(tmp_path / "r.json"),
        ]
        assert cli_main(argv) == 2
        assert re.search(r"query point \(.*\) is too far", capsys.readouterr().err)

    def test_malformed_cloud_is_two(self, tmp_path, config_file):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2 fish\n")
        assert (
            cli_main(
                [
                    "fit",
                    "--cloud", str(bad),
                    "--config", str(config_file),
                    "--surface-out", str(tmp_path / "s.json"),
                    "--report-out", str(tmp_path / "r.json"),
                ]
            )
            == 2
        )

    def test_malformed_surface_is_two(self, tmp_path, cloud_file, capsys):
        # a JSON array instead of an object, a fractional degree that must
        # not be truncated to an integer, a boolean degree that must not be
        # read as 1, and an object where knots belong
        knots = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        surface = {"degree_x": 2, "degree_y": 2, "knots_x": knots, "knots_y": knots,
                   "coefficients": [[0.0] * 3] * 3}
        path = tmp_path / "s.json"
        for payload in (
            [1, 2],
            {**surface, "degree_x": 2.7},
            # a consistent degree-1 surface, were True taken for 1
            {**surface, "degree_x": True, "knots_x": [0.0, 0.0, 1.0, 1.0],
             "coefficients": [[0.0] * 3] * 2},
            {**surface, "knots_y": {}},
        ):
            path.write_text(json.dumps(payload))
            argv = ["eval", "--surface", str(path), "--cloud", str(cloud_file),
                    "--out", str(tmp_path / "e.json")]
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "wqisa" in capsys.readouterr().out


# run in a fresh interpreter, so that nothing the test session imported counts
DEPENDENCY_PROBE = """
import sys
from wqisa.cli import cli_main

open("run.cfg", "w").write("k_grid = 1,2,3\\nmax_iterations = 4\\n")
for argv in (
    "synth --n 400 --seed 3 --noise-std 0.05 --outlier-fraction 0.02 --out cloud.xyz",
    "fit --cloud cloud.xyz --config run.cfg --surface-out s.json --report-out r.json",
    "eval --surface s.json --cloud cloud.xyz --out e.json",
    "compare --cloud cloud.xyz --config run.cfg --out c.json",
):
    assert cli_main(argv.split()) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # scipy is installed in some environments but is no dependency: no CLI
    # path may import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "c.json").is_file()
