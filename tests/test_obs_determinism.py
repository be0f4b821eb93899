"""Byte-determinism of the metrics exports.

The JSONL exporter promises byte-identical output for identical
workloads — across processes, across ``PYTHONHASHSEED``, and across
``grid_map`` worker counts (worker deltas merge in input order). These
tests pin that promise end to end by running real workloads in
subprocesses and comparing the raw bytes they emit.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A seeded robust-tune over a fault ensemble, metrics to stdout.
FAULTS_SCRIPT = """
import sys
from repro import FaultSpec, TPUV4, TuneRequest
from repro.models import get_model
from repro.obs.export import collect_records, dumps_records

spec = FaultSpec(
    stragglers=1, straggler_slowdown=1.4, degraded_links=1,
    link_slowdown=1.5, launch_jitter=1e-6, outage_rate=0.05, seed=7,
)
result = TuneRequest(
    model=get_model("gpt3-175b"), batch=8, chips=16, hw=TPUV4,
    mode="robust", spec=spec, ensemble=4,
).run()
sys.stdout.write(f"mesh={result.mesh.shape}\\n")
sys.stdout.write(dumps_records(collect_records()))
"""

#: A grid of real simulations mapped over N workers, metrics to stdout.
GRID_SCRIPT = """
import sys
from repro.experiments.common import grid_map
from repro.obs.export import collect_records, dumps_records


def point(n):
    from repro import TPUV4, get_algorithm, simulate
    from repro.algorithms import GeMMConfig
    from repro.core import Dataflow, GeMMShape
    from repro.mesh import Mesh2D

    cfg = GeMMConfig(
        GeMMShape(512 * (1 + n % 3), 512, 512),
        Mesh2D(2, 2),
        Dataflow.OS,
        slices=1,
    )
    program = get_algorithm("meshslice").build_program(cfg, TPUV4)
    return simulate(program, TPUV4).makespan


jobs = int(sys.argv[1])
out = grid_map(point, list(range(12)), jobs=jobs)
sys.stdout.write(f"points={len(out)}\\n")
sys.stdout.write(dumps_records(collect_records(include_caches=False)))
"""


#: A seeded SDC injection + ABFT-protected GeMM, events and metrics
#: to stdout. Exercises the shared FaultSpec/SDCPlan seeding
#: convention end to end: identical seeds must flip identical bits at
#: identical coordinates regardless of hash randomization.
SDC_SCRIPT = """
import sys
import numpy as np
from repro.abft import abft_gemm
from repro.faults import SDCPlan, sdc_injection
from repro.mesh import Mesh2D
from repro.obs.export import collect_records, dumps_records

rng = np.random.default_rng(12)
a = rng.integers(-4, 5, (16, 24)).astype(np.float64)
b = rng.integers(-4, 5, (24, 16)).astype(np.float64)

for plan in SDCPlan(rate=0.4, seed=2025, bit=48, max_flips=2).ensemble(3):
    c, report = abft_gemm(
        a, b, Mesh2D(2, 2), algorithm="meshslice", slices=2, plan=plan
    )
    sys.stdout.write(f"seed={plan.seed} exact={np.array_equal(c, a @ b)}\\n")
    for event in report.flips:
        sys.stdout.write(f"{event}\\n")

with sdc_injection(SDCPlan(rate=1.0, seed=9, max_flips=3)) as injector:
    from repro.core import meshslice_os
    meshslice_os(a, b, Mesh2D(2, 2), slices=2)
for event in injector.events:
    sys.stdout.write(f"{event}\\n")
sys.stdout.write(dumps_records(collect_records(include_caches=False)))
"""


#: Serve a query mix (with duplicates) through the tuning service into
#: a plan store, then print every stored record's address and content
#: hash. The store contract: the same canonical config produces the
#: identical record bytes whatever the worker count, arrival order, or
#: warm-start path that produced it.
STORE_SCRIPT = """
import hashlib
import os
import sys
from repro import TPUV4, TuneRequest, TunerService
from repro.models import get_model

root, jobs = sys.argv[1], int(sys.argv[2])
model = get_model("gpt3-175b")
requests = [
    TuneRequest(model=model, batch=8, chips=chips, hw=TPUV4)
    for chips in (16, 32, 16, 32, 64)
]
with TunerService(root, workers=jobs) as svc:
    svc.serve_many(requests)
for dirpath, dirs, files in sorted(os.walk(root)):
    dirs.sort()
    for name in sorted(files):
        path = os.path.join(dirpath, name)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        sys.stdout.write(f"{os.path.relpath(path, root)} {digest}\\n")
"""


def _run(script, *args, hashseed="0"):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    env.pop("REPRO_NO_METRICS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, *[str(a) for a in args]],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestFaultEnsembleDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        first = _run(FAULTS_SCRIPT, hashseed="0")
        second = _run(FAULTS_SCRIPT, hashseed="31337")
        assert first == second
        assert b"tuner.robust_runs" in first
        assert b"faults.plans_applied" in first


class TestSDCDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        first = _run(SDC_SCRIPT, hashseed="0")
        second = _run(SDC_SCRIPT, hashseed="31337")
        assert first == second
        # Injection happened, events were recorded, protection held.
        assert b"SDCEvent" in first
        assert b"exact=True" in first
        assert b"exact=False" not in first
        assert b"sdc.flips" in first


class TestGridMapDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = _run(GRID_SCRIPT, 1, hashseed="0")
        parallel = _run(GRID_SCRIPT, 4, hashseed="17")
        assert serial == parallel
        assert b"points=12" in serial
        assert b"sim.runs" in serial
        assert b"engine.queue_wait_seconds" in serial

    def test_repeat_runs_identical(self):
        first = _run(GRID_SCRIPT, 4, hashseed="5")
        second = _run(GRID_SCRIPT, 4, hashseed="99")
        assert first == second


class TestStoreByteDeterminism:
    def test_identical_records_across_runs_and_workers(self, tmp_path):
        """Same canonical configs -> identical stored record bytes.

        Run one: a single worker serves the mix sequentially, so the
        32- and 64-chip searches warm-start from stored neighbors.
        Run two: four workers race, the duplicates coalesce in flight,
        and the searches mostly run cold — under a different hash
        seed. The stores must still match file for file, byte for
        byte.
        """
        serial = _run(STORE_SCRIPT, tmp_path / "a", 1, hashseed="0")
        parallel = _run(STORE_SCRIPT, tmp_path / "b", 4, hashseed="31337")
        assert serial == parallel
        assert len(serial.splitlines()) == 3  # one record per config


class TestJsonlFileDeterminism:
    def test_cli_metrics_file_stable(self, tmp_path):
        """Two `meshslice tune --metrics` runs write identical files."""
        paths = []
        for i, hashseed in enumerate(("0", "424242")):
            out = tmp_path / f"m{i}.jsonl"
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hashseed
            env.pop("REPRO_NO_METRICS", None)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "tune", "gpt3-175b",
                    "--chips", "16", "--batch", "8", "--metrics", str(out),
                ],
                capture_output=True,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_exported_files_validate(self, tmp_path):
        from repro.obs.export import read_jsonl, write_jsonl
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("a.count", 2.0, labels={"x": "1"})
        reg.set_gauge("a.level", 0.5)
        reg.observe("a.hist", 1e-3)
        records = [rec.to_record() for rec in reg.snapshot()]
        path = tmp_path / "out.jsonl"
        write_jsonl(records, str(path))
        assert read_jsonl(str(path)) == records
