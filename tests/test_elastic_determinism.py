"""The elastic-lifetime determinism contract, pinned in subprocesses.

The seeded lifetime simulator follows the FaultSpec convention — one
``random.Random(seed)`` consumed in a fixed order — so its structured
JSONL event log, the CLI's ``--events`` / ``--metrics`` exports, and
the ``ablation-elastic`` grid rows must be **byte-identical** across
``PYTHONHASHSEED`` values and ``grid_map`` worker counts. These tests
run real subprocesses under different hash seeds and job counts and
diff the raw bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

HASHSEEDS = ("0", "1", "4242")

#: All four policies through the table-driven planner; dumps every
#: event log plus the goodput reprs to stdout.
LIFETIME_SCRIPT = """
import sys
from repro.mesh import Mesh2D
from repro.recovery import (
    ClusterReliability,
    LifetimeSpec,
    POLICIES,
    TableElasticPlanner,
    simulate_lifetime,
)

planner = TableElasticPlanner(
    Mesh2D(4, 4),
    step_seconds=1.0,
    degraded={1: (Mesh2D(3, 4), 1.5), 2: (Mesh2D(3, 3), 2.0)},
    reshaped={15: (Mesh2D(3, 5), 1.4), 14: (Mesh2D(2, 7), 1.9)},
    migration_seconds=5.0,
)
flaky = ClusterReliability(
    chip_mtbf=3600.0 * 16, chips=16, repair_seconds=86400.0
)
for policy in POLICIES:
    result = simulate_lifetime(
        planner,
        flaky,
        LifetimeSpec(policy=policy, duration_days=3.0, spares=2, seed=11),
        60.0,
        30.0,
    )
    sys.stdout.write(result.event_log_jsonl() + "\\n")
    sys.stdout.write(f"{policy} goodput={result.goodput!r}\\n")
"""

#: The real grid — tuned planner, reshard migrations — mapped at a
#: caller-chosen worker count: argv = (jobs,). Rows dump through the
#: campaign codec (canonical bytes or TypeError). Rows only: the
#: parent registry's *totals* after a plain ``grid_map`` legitimately
#: depend on worker topology (cross-point memoization is shared
#: serially, split across pool workers); per-point metrics are pinned
#: through the campaign store below, which isolates caches per point.
GRID_SCRIPT = """
import sys
from repro.campaign.codec import canonical_json
from repro.experiments.ablation_elastic import run

rows = run(
    mtbf_hours=(500.0,), spare_counts=(0, 2), duration_days=5.0,
    jobs=int(sys.argv[1]),
)
sys.stdout.write(canonical_json(rows) + "\\n")
"""

#: The same reduced grid through a durable campaign store: argv =
#: (root, jobs). Stored records carry each point's rows *and* its
#: metrics delta — including the ``elastic.migration_seconds``
#: histogram, whose non-dyadic float total is what exposes any
#: rounding drift between serial and pooled accumulation.
CAMPAIGN_SCRIPT = """
import sys
from repro.campaign import CampaignRunner, CampaignStore
from repro.experiments.ablation_elastic import CAMPAIGN

root, jobs = sys.argv[1], int(sys.argv[2])
points = CAMPAIGN.points(
    mtbf_hours=(500.0,), spare_counts=(0, 2), duration_days=5.0
)
summary = CampaignRunner(
    CampaignStore(root), "elastic-determinism", CAMPAIGN.point, jobs=jobs
).run(points)
sys.stdout.write(f"complete={summary.complete} ran={summary.ran}\\n")
"""


def _env(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    env.pop("REPRO_NO_METRICS", None)
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    return env


def _run(argv, hashseed, cwd=None):
    proc = subprocess.run(
        argv, capture_output=True, env=_env(hashseed), timeout=600, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestLifetimeLogAcrossHashSeeds:
    def test_event_logs_byte_identical(self):
        outputs = {
            _run([sys.executable, "-c", LIFETIME_SCRIPT], seed)
            for seed in HASHSEEDS
        }
        assert len(outputs) == 1
        (log,) = outputs
        assert b'"kind":"end"' in log  # the logs actually materialized


class TestCliExportsAcrossHashSeeds:
    def _cli(self, tmp_path, hashseed):
        out = tmp_path / hashseed
        out.mkdir()
        # Relative output paths + cwd keep the per-seed directory out
        # of the echoed stdout so the streams diff byte-for-byte.
        stdout = _run(
            [
                sys.executable, "-m", "repro.cli", "elastic", "llama2-70b",
                "--mesh", "4x4", "--policy", "replace", "--spares", "2",
                "--duration-days", "10", "--chip-mtbf-hours", "500",
                "--events", "events.jsonl",
                "--metrics", "metrics.jsonl",
            ],
            hashseed,
            cwd=str(out),
        )
        return (
            stdout,
            (out / "events.jsonl").read_bytes(),
            (out / "metrics.jsonl").read_bytes(),
        )

    def test_events_metrics_and_stdout_byte_identical(self, tmp_path):
        baseline = self._cli(tmp_path, HASHSEEDS[0])
        stdout, events, metrics = baseline
        assert events.count(b"\n") > 0
        assert b"elastic.lifetimes" in metrics
        assert b"replace" in stdout
        for seed in HASHSEEDS[1:]:
            assert self._cli(tmp_path, seed) == baseline


class TestGridAcrossWorkerCounts:
    def test_rows_byte_identical(self):
        """Serial, 2-way, and 4-way pools under rotating hash seeds
        all produce the same canonical row bytes."""
        outputs = {
            _run([sys.executable, "-c", GRID_SCRIPT, str(jobs)], seed)
            for jobs, seed in ((1, "0"), (2, "4242"), (4, "1"))
        }
        assert len(outputs) == 1
        (dump,) = outputs
        assert b"simulated_goodput" in dump

    def test_campaign_store_byte_identical(self, tmp_path):
        """The stored sweep — rows plus per-point metrics deltas,
        histograms included — is byte-identical whatever the worker
        count or hash seed that wrote it."""
        stores = set()
        for jobs, seed in ((1, "0"), (2, "4242"), (4, "1")):
            root = tmp_path / f"j{jobs}-h{seed}"
            root.mkdir()
            out = _run(
                [
                    sys.executable, "-c", CAMPAIGN_SCRIPT, str(root),
                    str(jobs),
                ],
                seed,
            )
            assert b"complete=True ran=5" in out
            stores.add((root / "elastic-determinism.jsonl").read_bytes())
        assert len(stores) == 1
        (store,) = stores
        assert b"simulated_goodput" in store
        assert b"elastic.migration_seconds" in store
        assert b"elastic.lifetimes" in store
