"""The campaign crash-tolerance contract, pinned end to end.

A sweep SIGKILLed mid-flight, then resumed (at any ``--jobs``), must
leave a record store byte-identical to one written by an uninterrupted
serial run — across ``PYTHONHASHSEED`` values. These tests kill real
subprocess sweeps and diff the raw store bytes.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CAMPAIGN = "kill-test"

#: A campaign of real simulations: argv = (root, jobs, n_points).
SWEEP_SCRIPT = """
import sys
from repro.campaign import CampaignRunner, CampaignStore


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


root, jobs, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
summary = CampaignRunner(
    CampaignStore(root), "kill-test", point, jobs=jobs
).run(list(range(n)))
sys.stdout.write(
    f"complete={summary.complete} ran={summary.ran} "
    f"skipped={summary.skipped} failed={summary.failed} "
    f"quarantined={summary.quarantined}\\n"
)
"""

N_POINTS = 10
KILL_AFTER_RECORDS = 3


def _env(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    env.pop("REPRO_NO_METRICS", None)
    env.pop("REPRO_JOBS", None)
    return env


def _sweep(root, jobs, hashseed):
    """Run one sweep subprocess to completion; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT, str(root), str(jobs),
         str(N_POINTS)],
        capture_output=True,
        env=_env(hashseed),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _record_count(store_file):
    try:
        with open(store_file, "rb") as handle:
            return handle.read().count(b"\n")
    except OSError:
        return 0


def _descendants(pid):
    """Pids of ``pid``'s live descendant processes, from ``/proc``."""
    children = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _running(pid):
    """Whether ``pid`` still runs (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _kill_mid_sweep(root, jobs, hashseed):
    """Start a sweep, SIGKILL it once records are landing.

    Returns the store's record count and the pids of the runner's
    descendants (its grid pool workers) just before the kill.
    """
    store_file = os.path.join(root, f"{CAMPAIGN}.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-c", SWEEP_SCRIPT, str(root), str(jobs),
         str(N_POINTS)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(hashseed),
    )
    deadline = time.monotonic() + 600
    workers = []
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if _record_count(store_file) >= KILL_AFTER_RECORDS:
                workers = _descendants(proc.pid)
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
        proc.wait(timeout=600)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # Either the kill landed mid-sweep (the interesting case) or the
    # sweep won the race and finished; both must resume cleanly.
    count = _record_count(store_file)
    assert count > 0, "sweep was killed before any record landed"
    return count, workers


def _store_bytes(root):
    with open(os.path.join(root, f"{CAMPAIGN}.jsonl"), "rb") as handle:
        return handle.read()


class TestKillResumeDeterminism:
    def _check(self, tmp_path, jobs):
        killed_root = str(tmp_path / "killed")
        os.makedirs(killed_root)
        _, workers = _kill_mid_sweep(killed_root, jobs, hashseed="0")
        if jobs > 1 and os.path.isdir("/proc"):
            # Pool workers must not outlive a SIGKILLed runner.
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers)), (
                f"orphaned grid workers still running: {workers}"
            )
        out = _sweep(killed_root, jobs, hashseed="17")
        assert "complete=True" in out and "failed=0" in out
        cold_root = str(tmp_path / "cold")
        cold_out = _sweep(cold_root, 1, hashseed="31337")
        assert f"complete=True ran={N_POINTS} skipped=0" in cold_out
        assert _store_bytes(killed_root) == _store_bytes(cold_root)

    def test_serial_sweep_killed_and_resumed(self, tmp_path):
        self._check(tmp_path, jobs=1)

    def test_parallel_sweep_killed_and_resumed(self, tmp_path):
        """Satellite: kill a 4-way pool mid-flight, resume 4-way."""
        self._check(tmp_path, jobs=4)


class TestResumeSkipsWork:
    def test_completed_sweep_resumes_as_noop(self, tmp_path):
        root = str(tmp_path / "store")
        first = _sweep(root, 1, hashseed="0")
        assert f"complete=True ran={N_POINTS} skipped=0" in first
        before = _store_bytes(root)
        second = _sweep(root, 1, hashseed="99")
        assert f"complete=True ran=0 skipped={N_POINTS}" in second
        assert _store_bytes(root) == before


#: A pooled grid whose points block: argv = (marker_dir,).
BLOCKED_GRID_SCRIPT = """
import os, sys, time
from repro.experiments.common import grid_map


def point(n):
    open(os.path.join(sys.argv[1], f"started-{n}"), "w").close()
    time.sleep(60)


grid_map(point, range(2), jobs=2)
"""


class TestKilledRunnerLeavesNoWorkers:
    def test_pool_workers_exit_with_their_parent(self, tmp_path):
        """SIGKILL a grid owner whose workers are busy: they must exit."""
        if not os.path.isdir("/proc"):
            pytest.skip("needs /proc to list descendant processes")
        proc = subprocess.Popen(
            [sys.executable, "-c", BLOCKED_GRID_SCRIPT, str(tmp_path)],
            env=_env("0"),
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("started-*"))) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            workers = _descendants(proc.pid)
            assert workers
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers)), (
                f"orphaned grid workers still running: {workers}"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
