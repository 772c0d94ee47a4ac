"""The names the benchmark's span tracer wraps must stay where it finds them.

``perfbench/tracing.py`` instruments wqisa from outside: it replaces about
twenty public names (``wqisa.cli.read_cloud``, ``PlanarIndex.knn`` called
with ``with_count=True``, ...) while a traced op runs.  A renamed or reshaped
one breaks the benchmark, which only its own smoke test would see.  Here the
tracer wraps the package as imported, one traced op of each workload (``fit``,
``eval`` with ``sample``, and ``compare``) runs on the harness's own small
inputs, and no wrapped call may fail.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import tracing  # noqa: E402


def test_every_traced_workload_calls_each_name_as_the_tracer_wraps_it(tmp_path):
    # the namespace harness.import_wqisa builds, over the package already imported
    modules = {name: importlib.import_module(f"wqisa.{name}") for name in harness.WQISA_MODULES}
    wq = SimpleNamespace(**modules, modules=tuple(modules.values()))
    tracer = tracing.Tracer(wq)
    workloads = (harness.Fit(points=400, pool=1, max_iterations=3),
                 harness.Eval(points=400, pool=1, elements=2, resolution=20),
                 harness.Compare(points=400, pool=1, max_iterations=3))
    for op, workload in enumerate(workloads):
        work = tmp_path / workload.name
        work.mkdir()
        workload.setup(wq, work, seed=5)
        with tracer.op(op):
            assert harness.run_op(wq, workload.argvs(0, work))
    rows = tracer.per_op()
    fit, evaluate, compare = (rows[op] for op in range(len(workloads)))
    for row in (fit, evaluate, compare):
        assert [key for key in row if ":error." in key] == []
    # eval makes no neighbour query; it reads a surface and writes a grid
    assert fit["kdtree.knn:count"] > 0 and compare["kdtree.knn:count"] > 0
    assert evaluate["metrics.hausdorff:calls"] > 0 and evaluate["io.write:calls"] > 0
