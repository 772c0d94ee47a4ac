"""wqisa benchmark: the CLI driven in-process on seeded hemisphere clouds.

Run from the repository root (``run.py`` pins BLAS to one thread first):

    python3 perfbench/run.py --workload fit-knn-20k --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with one client and no worker
threads: the next op starts when the previous one has returned.  A run has
three phases.

1. Set-up, repeated at least ``SETUP_REPEATS`` times and for at least
   ``SETUP_SECONDS``.  It imports wqisa afresh, synthesizes the workload's
   pool of clouds with ``wqisa synth`` (cloud seeds derive from ``--seed``)
   and writes config and surface files.
2. The timed loop.  Ops cycle through the pool until ``--seconds`` have
   passed, every cloud has run once and the first cloud has run twice.  A
   repeated op must reproduce the bytes its cloud's first op wrote.
3. Output checks on the first op of every cloud.  An op fails on a nonzero
   exit, a failed check of its cloud's output, or a byte mismatch.

With ``--trace 1`` every loop slot runs an untraced and a traced op on the
same cloud, the untraced one first on even slots and second on odd slots; the
traced op's spans give the per-layer metrics and the pair gives the tracing
overhead.

Op time and throughput are reported in units of a calibration kernel timed
right before and after each op (``op_cal_p50`` in ``cal``, ``points_per_cal``):
on a shared host the CPU speed drifts by a quarter within seconds, and the
ratio of an op's time to the kernel's time around it cancels most of that.
Set-up is timed the same way, against the kernel around each repeat, and
``setup_s`` is the median converted back to seconds with a fixed nominal
kernel time, ``REFERENCE_CAL_S``: set-up seconds on a machine that runs the
kernel in 10 ms.  The info line keeps the raw numbers in seconds
(``op_s_p50``, ``points_per_s``, ``setup_seconds``) and adds a tail
percentile when a run has ten ops beyond one above the median.  Quality
metrics (``mse``, ``hausdorff``) are means over the pool's first ops, so they
are fixed by the seed and do not depend on how many ops fit in a run.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, layer_metrics, self_time_gap

# set-up runs at least this often and for at least this long; short set-ups
# repeat more, so their median is not one noisy sample
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
NOISE_STD = 0.05
OUTLIER_FRACTION = 0.02
SPLIT_SEED = 7
K_GRID = ",".join(str(k) for k in range(1, 11))
# points drawn from a point set for the brute-force Hausdorff floor
SUBSAMPLE = 200
# tolerance on the floor, in case the library's float order changes
FLOOR_RTOL = 1e-12
# seconds of op time per calibration kernel run between ops
CALIBRATE_EVERY = 0.5
# nominal kernel time that converts set-up time in kernel units back to seconds
REFERENCE_CAL_S = 0.01
WQISA_MODULES = ("clouds", "splines", "kdtree", "weights", "metrics", "pipeline", "mba",
                 "synthetic", "io", "cli")
# the sample density wqisa compare uses for its Hausdorff distances
COMPARE_DENSITY = 4
EVAL_KEYS = {"tool_version", "stats", "hausdorff", "hausdorff_sample_density"}


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's output checks."""


def import_wqisa(src: Path) -> SimpleNamespace:
    """Import wqisa from *src*, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "wqisa" or m.startswith("wqisa.")]:
        del sys.modules[name]
    package = importlib.import_module("wqisa")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported wqisa from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"wqisa.{name}") for name in WQISA_MODULES}
    return SimpleNamespace(**modules, modules=tuple(modules.values()))


def cli(wq, argv: list[str]) -> None:
    """A CLI call outside the timed loop; a nonzero exit is a failed check."""
    code = wq.cli.cli_main(argv)
    if code != 0:
        raise CheckFailed(f"wqisa {argv[0]} exited with {code}")


def load_json(path: Path, keys: set[str]) -> dict:
    payload = json.loads(path.read_text())
    if set(payload) != keys:
        raise CheckFailed(f"{path.name} has keys {sorted(payload)}, expected {sorted(keys)}")
    return payload


def finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not np.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return float(value)


def within(values: np.ndarray, lo: float, hi: float, what: str) -> None:
    if values.min() < lo or values.max() > hi:
        raise CheckFailed(
            f"{what} span [{values.min()!r}, {values.max()!r}] leaves [{lo!r}, {hi!r}]"
        )


def hausdorff_floor(reported: float, a: np.ndarray, b: np.ndarray, rng) -> None:
    """The Hausdorff distance is at least the directed distance from any
    subset of *a* to *b*; compute that by brute force on a subsample."""
    sub = a[rng.choice(len(a), size=min(SUBSAMPLE, len(a)), replace=False)]
    d2 = ((sub[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    floor = float(np.sqrt(d2.min(axis=1)).max())
    if not reported >= floor * (1.0 - FLOOR_RTOL):
        raise CheckFailed(f"Hausdorff {reported!r} is below the brute-force floor {floor!r}")


class Workload:
    """One set of inputs: a pool of seeded clouds and the CLI calls of an op."""

    name = ""
    why = ""
    # per-layer metric prefixes this workload should leave at zero
    bypassed: tuple[str, ...] = ()

    def __init__(self, points: int, pool: int):
        self.points = points
        self.pool = pool

    def setup(self, wq, work: Path, seed: int) -> None:
        self.seed = seed
        seeds = np.random.SeedSequence(seed).generate_state(self.pool + 1)
        self.clouds = [self.synth(wq, work / f"cloud{i}.xyz", s) for i, s in enumerate(seeds[:-1])]
        self.spare_seed = int(seeds[-1])

    def synth(self, wq, path: Path, cloud_seed) -> Path:
        cli(wq, ["synth", "--n", str(self.points), "--seed", str(cloud_seed),
                 "--noise-std", str(NOISE_STD), "--outlier-fraction", str(OUTLIER_FRACTION),
                 "--out", str(path)])
        return path

    def write_config(self, path: Path, **extra) -> Path:
        # epsilon 0 splits every element that holds validation points and the
        # low iteration cap ends the loop before it can stagnate, so every seed
        # tunes on the same meshes and an op's work does not depend on it (the
        # best mesh it returns may still differ)
        lines = ["weight = knn", f"k_grid = {K_GRID}", "epsilon = 0", f"seed = {SPLIT_SEED}"]
        lines += [f"{key} = {value}" for key, value in extra.items()]
        path.write_text("\n".join(lines) + "\n")
        return path

    def rng(self, cloud: int):
        return np.random.default_rng([self.seed, cloud])

    def argvs(self, cloud: int, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, wq, cloud: int, out: Path) -> dict[str, float]:
        """Check the first op's output of *cloud*; return its quality metrics."""
        raise NotImplementedError


class Fit(Workload):
    name = "fit-knn-20k"
    why = ("wqisa fit, knn k=1..10, five refinement iterations: the 10k training set is "
           "above LARGE_CLOUD; traced, k-d tree builds take 73% of an op and knn queries 13%")
    bypassed = ("metrics.hausdorff", "mba.")

    def __init__(self, points: int = 20000, pool: int = 5, max_iterations: int = 5):
        super().__init__(points, pool)
        self.max_iterations = max_iterations

    def setup(self, wq, work, seed):
        super().setup(wq, work, seed)
        self.config = self.write_config(work / "fit.cfg", max_iterations=self.max_iterations)

    def argvs(self, cloud, out):
        return [["fit", "--cloud", str(self.clouds[cloud]), "--config", str(self.config),
                 "--surface-out", str(out / "surface.json"),
                 "--report-out", str(out / "report.json")]]

    def check(self, wq, cloud, out):
        points = wq.io.read_cloud(self.clouds[cloud])
        report = load_json(out / "report.json", {"tool_version", "config", "report"})
        mse = finite(report["report"]["test_mse"], "test_mse")
        surface = wq.io.load_surface(out / "surface.json")
        within(surface.coefficients, points[:, 2].min(), points[:, 2].max(), "coefficients")
        # the user's next step: measure the fit against its cloud
        evaluated = out.parent / f"eval{cloud}.json"
        cli(wq, ["eval", "--surface", str(out / "surface.json"),
                 "--cloud", str(self.clouds[cloud]), "--out", str(evaluated), "--density", "1"])
        report = load_json(evaluated, EVAL_KEYS)
        distance = finite(report["hausdorff"], "hausdorff")
        hausdorff_floor(distance, points, wq.metrics.surface_sample_points(surface, 1),
                        self.rng(cloud))
        return {"mse": mse, "hausdorff": distance}


class Eval(Workload):
    name = "eval-20k"
    why = ("wqisa eval + sample 500x500 against a fixed 8x8 surface: traced, all-pairs "
           "Hausdorff takes 62% of an op and CSV writes 30%; no k-d tree or weights")
    bypassed = ("kdtree.", "weights.", "mba.")

    def __init__(self, points: int = 20000, pool: int = 6, elements: int = 8,
                 resolution: int = 500):
        super().__init__(points, pool)
        self.elements = elements
        self.resolution = resolution

    def setup(self, wq, work, seed):
        super().setup(wq, work, seed)
        base = wq.io.read_cloud(self.synth(wq, work / "base.xyz", self.spare_seed))
        # the fixed mesh keeps the op's work independent of any refinement path
        knots = wq.splines.KnotVector.uniform_open(2, self.elements, 0.0, 1.0)
        space = wq.splines.TensorSplineSpace(knots, knots)
        surface = wq.weights.fit_surface(base, space, wq.weights.WeightSpec.knn(10))
        within(surface.coefficients, base[:, 2].min(), base[:, 2].max(), "fixed surface")
        self.surface = work / "surface.json"
        wq.io.save_surface(surface, self.surface)

    def argvs(self, cloud, out):
        res = f"{self.resolution}x{self.resolution}"
        return [["eval", "--surface", str(self.surface), "--cloud", str(self.clouds[cloud]),
                 "--out", str(out / "eval.json")],
                ["sample", "--surface", str(self.surface), "--resolution", res,
                 "--out", str(out / "grid.csv")]]

    def check(self, wq, cloud, out):
        report = load_json(out / "eval.json", EVAL_KEYS)
        mse = finite(report["stats"]["mse"], "stats.mse")
        distance = finite(report["hausdorff"], "hausdorff")
        surface = wq.io.load_surface(self.surface)
        points = wq.io.read_cloud(self.clouds[cloud])
        density = report["hausdorff_sample_density"]
        hausdorff_floor(distance, points, wq.metrics.surface_sample_points(surface, density),
                        self.rng(cloud))
        header, _, body = (out / "grid.csv").read_text().partition("\n")
        grid = np.array(body.split(), dtype=object)
        if header != "x,y,z" or grid.size != self.resolution**2:
            raise CheckFailed(f"grid.csv has header {header!r} and {grid.size} rows")
        z = np.array([row.rsplit(",", 1)[1] for row in grid], dtype=float)
        coefficients = surface.coefficients
        within(z, coefficients.min(), coefficients.max(), "sampled z")
        return {"mse": mse, "hausdorff": distance}


class Compare(Workload):
    name = "compare-2k-filtered"
    why = ("wqisa compare, knn with outlier filter, four refinement iterations: the 1k training "
           "set is below LARGE_CLOUD, so the direct-scan estimator takes 70%; only one running mba")
    bypassed = ("kdtree.",)

    def __init__(self, points: int = 2000, pool: int = 24, max_iterations: int = 4):
        super().__init__(points, pool)
        self.max_iterations = max_iterations

    def setup(self, wq, work, seed):
        super().setup(wq, work, seed)
        self.config = self.write_config(work / "compare.cfg", outlier_filter="true",
                                        max_iterations=self.max_iterations)

    def argvs(self, cloud, out):
        return [["compare", "--cloud", str(self.clouds[cloud]), "--config", str(self.config),
                 "--out", str(out / "compare.json")]]

    def check(self, wq, cloud, out):
        report = load_json(out / "compare.json", {"tool_version", "config", "wqisa", "mba"})
        mse = finite(report["wqisa"]["punctual"]["mse"], "wqisa.punctual.mse")
        distance = finite(report["wqisa"]["hausdorff"], "wqisa.hausdorff")
        finite(report["mba"]["hausdorff"], "mba.hausdorff")
        # compare keeps no surface, so refit it with the library; equal test
        # MSE shows the refit is the surface the CLI measured
        points = wq.io.read_cloud(self.clouds[cloud])
        config = wq.io.read_config(self.config).to_fit_config()
        data = wq.pipeline.split(points, config.fractions, config.seed)
        surface, _ = wq.pipeline.fit_split(data, config, domain=wq.clouds.bounding_box(points))
        if wq.metrics.punctual_errors(surface, data.test).mse != mse:
            raise CheckFailed("compare's test MSE differs from the library refit")
        within(surface.coefficients, points[:, 2].min(), points[:, 2].max(), "coefficients")
        samples = wq.metrics.surface_sample_points(surface, COMPARE_DENSITY)
        hausdorff_floor(distance, data.test, samples, self.rng(cloud))
        return {"mse": mse, "hausdorff": distance}


WORKLOADS = {w.name: w for w in (Fit, Eval, Compare)}


def run_op(wq, argvs: list[list[str]]) -> bool:
    """One op: its CLI calls in order.  True when every call exits with 0."""
    ok = True
    for argv in argvs:
        try:
            ok = wq.cli.cli_main(argv) == 0 and ok
        except Exception:
            traceback.print_exc()
            ok = False
    return ok


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Calibration:
    """A fixed kernel timed right before and after every op, so an op's time
    can be read relative to how fast the machine ran just then.  On a shared
    host the CPU speed drifts by a quarter within seconds to minutes; the
    ratio of an op's time to the kernel's time around it cancels most of
    that.  The kernel mixes the kinds of work the ops do: scalar reads and
    heap updates in interpreted loops, small numpy calls, float formatting
    and passes over an array larger than a core's cache."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.random(1000)
        self.block = rng.random(1 << 19)
        self.scratch = np.empty_like(self.block)
        self.order = rng.permutation(self.block.size)[:6000].tolist()
        # gaps[j] is the kernel time measured just before op j
        self.gaps: list[float] = []

    def _sample(self) -> float:
        began = perf_counter()
        # scalar reads at random places plus a bounded heap, like a tree query
        heap: list[tuple[float, int]] = []
        for i in self.order:
            d = self.block[i]
            if len(heap) < 16:
                heapq.heappush(heap, (-d, i))
            elif d < -heap[0][0]:
                heapq.heapreplace(heap, (-d, i))
        for _ in range(60):
            np.lexsort((self.keys, self.keys))
        ",".join(format(x, ".17g") for x in self.block[:3000].tolist())
        for _ in range(4):
            np.multiply(self.block, self.block, out=self.scratch)
            np.sqrt(self.scratch, out=self.scratch)
        return perf_counter() - began

    def gap(self, samples: int) -> None:
        self.gaps.append(statistics.median(self._sample() for _ in range(samples)))

    def cost(self, j: int, seconds: float) -> float:
        """Op j's time in kernel units, against the kernel around it."""
        return seconds / ((self.gaps[j] + self.gaps[j + 1]) / 2)


@dataclass
class Op:
    slot: int
    cloud: int
    seconds: float
    exit_ok: bool
    digest: str
    traced: bool


def timed_loop(workload: Workload, wq, work: Path, seconds: float, tracer: Tracer | None,
               calibration: Calibration):
    """Run ops until *seconds* have passed and the first cloud ran twice,
    timing *calibration* between ops, about once per CALIBRATE_EVERY seconds
    of op time.

    Returns the ops and the output directory of each cloud's first op."""
    ops: list[Op] = []
    first: dict[int, Path] = {}
    start = perf_counter()
    slot = 0
    last = 0.0
    while slot <= workload.pool or perf_counter() - start < seconds:
        cloud = slot % workload.pool
        # alternate which op of a traced pair runs on warm files and heap
        modes = ((False, True) if slot % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in modes:
            calibration.gap(max(1, round(last / CALIBRATE_EVERY)))
            n = len(ops)
            out = work / "ops" / str(n)
            out.mkdir(parents=True)
            argvs = workload.argvs(cloud, out)
            began = perf_counter()
            if traced:
                with tracer.op(n):
                    exit_ok = run_op(wq, argvs)
            else:
                exit_ok = run_op(wq, argvs)
            elapsed = perf_counter() - began
            ops.append(Op(slot, cloud, elapsed, exit_ok, digest(out), traced))
            if cloud in first:
                shutil.rmtree(out)
            else:
                first[cloud] = out
            last = elapsed
        slot += 1
    calibration.gap(max(1, round(last / CALIBRATE_EVERY)))
    return ops, first


def check_outputs(workload: Workload, wq, ops: list[Op], first: dict[int, Path]):
    """Check each cloud's first output; mark every op ok or failed."""
    quality: dict[int, dict[str, float]] = {}
    for cloud, out in first.items():
        try:
            quality[cloud] = workload.check(wq, cloud, out)
        except Exception:
            print(f"output check failed on cloud {cloud}:", file=sys.stderr)
            traceback.print_exc()
    reference = {}
    for op in ops:
        reference.setdefault(op.cloud, op.digest)
    ok = [op.exit_ok and op.cloud in quality and op.digest == reference[op.cloud] for op in ops]
    return quality, ok


def tail_percentile(seconds: list[float]) -> dict | str:
    """The highest whole percentile of op time with ten ops beyond it."""
    beyond = 10
    if len(seconds) < 2 * beyond:
        return f"none: {len(seconds)} ops leave no percentile above the median with {beyond} beyond it"
    percent = int(100 * (1 - beyond / len(seconds)))
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    return {"percentile": percent, "seconds": cuts[percent - 1], "ops": len(seconds)}


def mean_of(quality: dict[int, dict[str, float]], key: str) -> float:
    return statistics.fmean(q[key] for q in quality.values()) if quality else 0.0


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_model": "unknown",
        "l3_cache": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            info["l3_cache"] = fh.read().strip()
    except OSError:
        pass
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return info


def measure(workload: Workload, seed: int, seconds: float, trace: bool, src: Path, scratch: Path):
    """One benchmark run; returns ``(info, result)``."""
    work = scratch / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        setup_calibration = Calibration()
        setup_calibration.gap(3)
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            began = perf_counter()
            wq = import_wqisa(src)
            workload.setup(wq, work, seed)
            setup_times.append(perf_counter() - began)
            setup_calibration.gap(max(3, round(setup_times[-1] / CALIBRATE_EVERY)))
        setup_costs = [setup_calibration.cost(j, t) for j, t in enumerate(setup_times)]
        tracer = Tracer(wq) if trace else None
        calibration = Calibration()
        ops, first = timed_loop(workload, wq, work, seconds, tracer, calibration)
        # read before the checks, which allocate more than some ops do
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        quality, ok = check_outputs(workload, wq, ops, first)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_seconds = [op.seconds for op in ops if not op.traced]
    op_costs = [calibration.cost(j, op.seconds) for j, op in enumerate(ops) if not op.traced]
    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "pool": workload.pool,
        "cloud_points": workload.points,
        "ops": len(ops),
        "op_seconds": [op.seconds for op in ops],
        "op_s_p50": statistics.median(op_seconds),
        "points_per_s": workload.points * len(op_seconds) / sum(op_seconds),
        "calibration_s": statistics.median(calibration.gaps),
        "machine": machine_info(),
        "setup_seconds": setup_times,
        "setup_calibration_s": setup_calibration.gaps,
        "tail": tail_percentile(op_seconds),
    }
    if trace:
        metrics, gaps = traced_metrics(workload, tracer, ops)
        # the op's self times against the harness's own clock around the op;
        # the gap is the cost of entering and leaving the tracer
        info["self_time_max_gap_s"] = max(gaps.values())
        info["bypass"] = {
            name: metric["value"] == 0
            for name, metric in metrics.items()
            if name.startswith(workload.bypassed)
        }
        spans = scratch / f"spans-{workload.name}-{seed}.jsonl"
        tracer.write(spans)
        info["spans"] = str(spans)
    else:
        metrics = {
            "op_cal_p50": (statistics.median(op_costs), "cal"),
            "points_per_cal": (workload.points * len(op_costs) / sum(op_costs), "points/cal"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_costs) * REFERENCE_CAL_S, "s"),
            "mse": (mean_of(quality, "mse"), "z2"),
            "hausdorff": (mean_of(quality, "hausdorff"), "z"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    failed = ok.count(False)
    result = {
        "correct": failed == 0 and len(quality) == len(first),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def traced_metrics(workload: Workload, tracer: Tracer, ops: list[Op]):
    rows = tracer.per_op()
    traced = [n for n, op in enumerate(ops) if op.traced]
    counted = {}
    for n in traced:
        counted.setdefault(ops[n].cloud, rows[n])
    metrics = layer_metrics([rows[n] for n in traced], list(counted.values()))
    # each slot holds one traced and one untraced op on the same cloud
    pairs: dict[int, dict[bool, float]] = defaultdict(dict)
    for op in ops:
        pairs[op.slot][op.traced] = op.seconds
    overhead = statistics.median(pair[True] / pair[False] for pair in pairs.values()) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    gaps = {n: self_time_gap(rows[n], ops[n].seconds) for n in traced}
    return metrics, gaps


def main(argv: list[str], src: Path, scratch: Path) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    info, result = measure(workload, args.seed, args.seconds, bool(args.trace), src, scratch)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0
