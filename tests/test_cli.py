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
from wqisa.io import RunConfig, read_cloud, save_surface, write_cloud, write_config
from wqisa.splines import KnotVector, TensorSplineSpace, WqisaSurface
from wqisa.synthetic import hemisphere_cloud, perturb

from oracles import avx512_targets


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

    def test_fractions_option(self, tmp_path):
        cloud = tmp_path / "cloud.xyz"
        write_cloud(cloud, hemisphere_cloud(2000, seed=4))
        prefix = tmp_path / "parts"
        argv = ["split", "--cloud", str(cloud), "--out-prefix", str(prefix),
                "--fractions", "0.6,0.2,0.2"]
        assert cli_main(argv) == 0
        sizes = [
            read_cloud(f"{prefix}_{name}.xyz").shape[0]
            for name in ("train", "validation", "test")
        ]
        assert sizes == [1200, 400, 400]


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
            "budget",
            "unsplittable",
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

    @pytest.mark.parametrize("name", ["g.xyz", "g.csv", "g.txt"])
    def test_grid_is_read_back_as_a_cloud(self, tmp_path, name):
        # the grid's extension is its format, as it is for every point file
        surface_path = tmp_path / "s.json"
        unit = TensorSplineSpace(KnotVector.uniform_open(1, 1), KnotVector.uniform_open(1, 1))
        save_surface(WqisaSurface(unit, np.array([[0.0, 1.0], [2.0, 3.0]])), surface_path)
        grid_path = tmp_path / name
        argv = ["sample", "--surface", str(surface_path), "--resolution", "3x2", "--out", str(grid_path)]
        assert cli_main(argv) == 0
        argv = ["eval", "--surface", str(surface_path), "--cloud", str(grid_path),
                "--out", str(tmp_path / "e.json")]
        assert cli_main(argv) == 0
        grid = read_cloud(grid_path)
        assert grid[:, 2].tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        with_header = name.endswith(".csv")
        assert grid_path.read_text().startswith("x,y,z\n" if with_header else "0 0 0\n")


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

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--fractions", "a,b,c"),
            ("--fractions", "0.5,0.5"),
            ("--fractions", "0.5,0.3,0.1,0.1"),
            ("--resolution", "axb"),
            ("--resolution", "50"),
            ("--resolution", "5x5x5"),
        ],
    )
    def test_malformed_option_value_is_one(self, capsys, option, value):
        argv, hint = {
            "--fractions": (
                ["split", "--cloud", "c.xyz", "--out-prefix", "p"],
                "expected three comma-separated fractions",
            ),
            "--resolution": (
                ["sample", "--surface", "s.json", "--out", "g.csv"],
                "expected RESxRES, e.g. 50x40",
            ),
        }[option]
        assert cli_main([*argv, option, value]) == 1
        assert f"error: argument {option}: {hint}\n" in capsys.readouterr().err

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

    def test_overflowing_hausdorff_is_two(self, tmp_path, capsys):
        # heights and stats are finite, but the surface spans 1e200 in x, so
        # a squared distance to its samples would overflow
        space = TensorSplineSpace(
            KnotVector(1, [0.0, 0.0, 1e200, 1e200]), KnotVector(1, [0.0, 0.0, 1.0, 1.0])
        )
        save_surface(WqisaSurface(space, np.zeros(space.shape)), tmp_path / "s.json")
        cloud = np.array([[0.0, 0.0, 0.0], [5e199, 0.5, 0.0], [1e200, 1.0, 0.0]])
        write_cloud(tmp_path / "c.xyz", cloud)
        out = tmp_path / "e.json"
        argv = ["eval", "--surface", str(tmp_path / "s.json"), "--cloud", str(tmp_path / "c.xyz"),
                "--out", str(out)]
        assert cli_main(argv) == 2
        assert "non-finite squared diagonal" in capsys.readouterr().err
        assert not out.exists()

    def test_heights_whose_squares_overflow_are_two(self, tmp_path, cloud_file, config_file, capsys):
        # heights times 2**520: every mean square of them overflows, so each
        # command refuses the cloud before it writes anything
        cloud = read_cloud(cloud_file) * [1.0, 1.0, 2.0**520]
        huge = tmp_path / "huge.xyz"
        write_cloud(huge, cloud)
        surface = tmp_path / "s.json"
        fit = ["fit", "--cloud", str(cloud_file), "--config", str(config_file),
               "--surface-out", str(surface), "--report-out", str(tmp_path / "r.json")]
        assert cli_main(fit) == 0
        outputs = [tmp_path / name for name in ("s2.json", "r2.json", "e.json", "c.json")]
        for argv in (
            ["fit", "--cloud", str(huge), "--config", str(config_file),
             "--surface-out", str(outputs[0]), "--report-out", str(outputs[1])],
            ["eval", "--surface", str(surface), "--cloud", str(huge), "--out", str(outputs[2])],
            ["compare", "--cloud", str(huge), "--config", str(config_file), "--out", str(outputs[3])],
        ):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith("error: the mean square of")
        assert [path for path in outputs if path.exists()] == []

    def test_heights_whose_sum_overflows_are_two(self, tmp_path, config_file, capsys):
        # heights in [0.5e308, 1e308]: the default epsilon's mean overflows,
        # which must be the one refusal, not a RuntimeWarning raised past it
        cloud = hemisphere_cloud(300, seed=1)
        cloud[:, 2] = 0.5e308 + 0.5e308 * cloud[:, 2]
        write_cloud(tmp_path / "huge.xyz", cloud)
        argv = ["fit", "--cloud", str(tmp_path / "huge.xyz"), "--config", str(config_file),
                "--surface-out", str(tmp_path / "s.json"), "--report-out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: the mean square of 150 values overflows the float range\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command", ["split", "synth"])
    def test_negative_seed_option_is_one(self, tmp_path, capsys, command):
        argv = {"split": ["split", "--cloud", "c.xyz", "--out-prefix", str(tmp_path / "p")],
                "synth": ["synth", "--n", "20", "--out", str(tmp_path / "c.xyz")]}[command]
        for seed in ("-2", "1.5", "x"):
            assert cli_main([*argv, "--seed", seed]) == 1
            assert "error: argument --seed: expected a nonnegative integer\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_config_seed_is_two(self, tmp_path, cloud_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = -3\n")
        argv = ["fit", "--cloud", str(cloud_file), "--config", str(config),
                "--surface-out", str(tmp_path / "s.json"), "--report-out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -3\n"

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

    def test_oversized_csv_field_is_two(self, tmp_path, capsys):
        # longer than the csv module's field limit
        path = tmp_path / "big.csv"
        path.write_text("x,y,z\n0,0," + "1" * 200_000 + "\n")
        argv = ["split", "--cloud", str(path), "--out-prefix", str(tmp_path / "p")]
        assert cli_main(argv) == 2
        expected = f"error: {path}: line 2: field larger than field limit (131072)\n"
        assert capsys.readouterr().err == expected

    def test_non_utf8_cloud_is_two(self, tmp_path, capsys):
        path = tmp_path / "c.xyz"
        path.write_bytes(b"0 0 1\n1 0 3\xe9\n")
        argv = ["split", "--cloud", str(path), "--out-prefix", str(tmp_path / "p")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2: not UTF-8: byte 0xe9")

    def test_malformed_surface_is_two(self, tmp_path, cloud_file, capsys):
        # a JSON array instead of an object, a fractional degree that must
        # not be truncated to an integer, a boolean degree that must not be
        # read as 1, an object where knots belong, and another format
        knots = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        surface = {"format": "wqisa-surface", "version": 1, "degree_x": 2, "degree_y": 2,
                   "knots_x": knots, "knots_y": knots, "coefficients": [[0.0] * 3] * 3}
        path = tmp_path / "s.json"
        for payload in (
            [1, 2],
            {**surface, "degree_x": 2.7},
            # a consistent degree-1 surface, were True taken for 1
            {**surface, "degree_x": True, "knots_x": [0.0, 0.0, 1.0, 1.0],
             "coefficients": [[0.0] * 3] * 2},
            {**surface, "knots_y": {}},
            {**surface, "format": "something-else", "version": 99},
        ):
            path.write_text(json.dumps(payload))
            argv = ["eval", "--surface", str(path), "--cloud", str(cloud_file),
                    "--out", str(tmp_path / "e.json")]
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "wqisa" in capsys.readouterr().out


# children import the source tree, whatever the session's working directory
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
    ),
}


def _run_child(args, cwd, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter in *cwd*, with *env* added to
    the environment; it must exit 0."""
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**CHILD_ENV, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_module_run_warns_nothing(tmp_path):
    # runpy warns when importing the package has already imported wqisa.cli
    done = _run_child(["-W", "error::RuntimeWarning", "-m", "wqisa.cli", "--version"], tmp_path)
    assert done.stderr == ""
    assert done.stdout.startswith("wqisa ")


# every CLI command on one fixed-seed cloud, synthesized as cloud.xyz and as
# the file the first argument names, for each config row: rows long enough
# for a sum to be reordered (knn, knn with the outlier filter, inverse
# distance truncated to 40 points), the indicator, plain inverse distance,
# and the README walkthrough's config.  Gaussian has no row: its bits follow
# the SIMD variant numpy dispatches for np.exp.  Every installed package but
# numpy (and wqisa, when installed) is made unimportable first, and the child
# prints each import of one it refused, so that each command also shows that
# numpy is the one runtime dependency, even where an ImportError is caught.
BYTES_PROBE = """
import sys
from importlib.metadata import packages_distributions

blocked = set(packages_distributions()) - {"numpy", "wqisa"} - set(sys.modules)
refused = []


class Refuse:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in blocked:
            refused.append(name)
            raise ImportError(f"import of {name} refused: numpy is the one runtime dependency")


sys.meta_path.insert(0, Refuse)
from wqisa.cli import cli_main

cloud = sys.argv[1]
synth = "synth --n 2000 --seed 7 --noise-std 0.05 --outlier-fraction 0.02 --out "
for path in sorted({"cloud.xyz", cloud}):
    assert cli_main((synth + path).split()) == 0
for name, config in (
    ("knn", "k_grid = 1,2,3,4,5,6,7,8,9,10\\nmax_iterations = 5\\n"),
    ("knn-filtered", "k_grid = 1,2,3,4,5,6,7,8,9,10\\noutlier_filter = true\\nmax_iterations = 5\\n"),
    ("idw-truncated", "weight = idw_truncated\\ntruncation = 40\\nmax_iterations = 5\\n"),
    ("indicator", "weight = indicator\\nradius_grid = 0.05,0.1,0.2\\nmax_iterations = 5\\n"),
    ("idw", "weight = idw\\nmax_iterations = 5\\n"),
    ("walkthrough", "weight = knn\\nk_grid = 1,2,3,4,5\\nmax_iterations = 10\\nseed = 3\\n"),
):
    open(name + ".cfg", "w").write(config)
    for argv in (
        f"fit --cloud {cloud} --config {name}.cfg --surface-out {name}-surf.json --report-out {name}-report.json",
        f"eval --surface {name}-surf.json --cloud {cloud} --out {name}-eval.json",
        f"compare --cloud {cloud} --config {name}.cfg --out {name}-compare.json",
        f"sample --surface {name}-surf.json --resolution 60x40 --out {name}-grid.csv",
    ):
        assert cli_main(argv.split()) == 0, argv
assert cli_main(f"split --cloud {cloud} --out-prefix parts --seed 1".split()) == 0
print(sorted(set(refused)))
"""


def _probe_bytes(work: Path, cloud: str, **env) -> dict[str, bytes]:
    """Every file BYTES_PROBE writes in *work* but a CSV cloud, by name."""
    work.mkdir()
    assert _run_child(["-c", BYTES_PROBE, cloud], work, **env).stdout == "[]\n"
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "cloud.csv"}


@pytest.fixture(scope="module")
def default_bytes(tmp_path_factory):
    return _probe_bytes(tmp_path_factory.mktemp("bytes") / "default", "cloud.xyz")


def _dynamic_openblas_on_avx2() -> bool:
    """Whether numpy links an OpenBLAS that picks its kernel at load time,
    on a CPU that runs both the Haswell and the Prescott kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):  # numpy < 1.26, no BLAS entry, no cpuinfo
        return False
    return (
        "openblas" in str(blas.get("name", "")).lower()
        and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))
        and "avx2" in flags
    )


@pytest.mark.parametrize(
    "cloud, env",
    [
        pytest.param(
            "cloud.xyz",
            {"OPENBLAS_CORETYPE": "Prescott"},
            id="prescott",
            marks=pytest.mark.skipif(
                not _dynamic_openblas_on_avx2(),
                reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU",
            ),
        ),
        pytest.param(
            "cloud.xyz",
            {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512_targets())},
            id="no-avx512",
            marks=pytest.mark.skipif(
                not avx512_targets(), reason="numpy dispatches no AVX-512 target on this CPU"
            ),
        ),
        pytest.param("cloud.csv", {}, id="csv"),
    ],
)
def test_outputs_are_byte_identical_across_machines(tmp_path, default_bytes, cloud, env):
    # a BLAS kernel or SIMD targets forced in a child's environment stand in
    # for another machine, and a CSV cloud for another file; nothing in this
    # process changes
    assert len(default_bytes) == 6 * 6 + 3 + 1  # six files a row, three parts, the cloud
    assert _probe_bytes(tmp_path / "variant", cloud, **env) == default_bytes
