"""The tuning service: TuneRequest, PlanStore, warm start, serving."""

import json
import os
import threading

import pytest

from repro.autotuner.search import tune_model
from repro.faults import FaultSpec
from repro.hw import TPUV4, get_preset
from repro.mesh import Mesh2D
from repro.models import LLMConfig, get_model
from repro.obs.registry import registry
from repro.service import (
    PlanStore,
    TuneRequest,
    TunerService,
    default_catalog,
    execute,
    warm_tune,
    zipf_mix,
)
from repro.service.store import encode_record

#: Small enough to tune in milliseconds, large enough to be non-trivial.
TINY = LLMConfig(
    name="tiny-fc", num_layers=2, hidden=512, heads=4, head_dim=128,
    seq_len=256,
)

GPT3 = get_model("gpt3-175b")


def tiny_request(**overrides):
    base = dict(model=TINY, batch=4, chips=16, hw=TPUV4)
    base.update(overrides)
    return TuneRequest(**base)


class TestTuneRequest:
    def test_canonical_drops_engine(self):
        a = tiny_request(engine="compiled")
        b = tiny_request()
        assert a.canonical() == b.canonical()
        assert a.cache_key() == b.cache_key()

    def test_canonical_collapses_sdc_rate_without_abft(self):
        assert (
            tiny_request(sdc_rate=0.25).cache_key()
            == tiny_request().cache_key()
        )
        assert (
            tiny_request(abft=True, sdc_rate=0.25).cache_key()
            != tiny_request(abft=True).cache_key()
        )

    def test_canonical_resets_robust_knobs_in_tune_mode(self):
        spec = FaultSpec(stragglers=1, seed=3)
        a = tiny_request(ensemble=99, quantile=0.5, algorithm="summa")
        assert a.cache_key() == tiny_request().cache_key()
        robust = tiny_request(mode="robust", spec=spec, ensemble=99)
        assert robust.cache_key() != tiny_request().cache_key()

    def test_canonical_degraded_derives_chips(self):
        a = TuneRequest(
            model=TINY, batch=4, hw=TPUV4, mode="degraded",
            mesh=Mesh2D(4, 4), dead=(1, 2),
        )
        assert a.canonical().chips == 16

    def test_distinct_configs_distinct_keys(self):
        assert tiny_request().cache_key() != tiny_request(chips=32).cache_key()
        assert tiny_request().cache_key() != tiny_request(batch=8).cache_key()

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            tiny_request(mode="nope")
        with pytest.raises(ValueError, match="batch"):
            tiny_request(batch=0)
        with pytest.raises(ValueError, match="chips"):
            TuneRequest(model=TINY, batch=4, hw=TPUV4)
        with pytest.raises(ValueError, match="fault spec"):
            tiny_request(mode="robust")
        with pytest.raises(ValueError, match="mesh"):
            tiny_request(mode="degraded")
        with pytest.raises(ValueError, match="outside"):
            TuneRequest(
                model=TINY, batch=4, hw=TPUV4, mode="degraded",
                mesh=Mesh2D(2, 2), dead=(5, 5),
            )

    def test_dict_round_trip(self):
        spec = FaultSpec(stragglers=2, straggler_slowdown=1.5, seed=7)
        request = tiny_request(mode="robust", spec=spec, ensemble=4)
        clone = TuneRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert clone == request
        assert clone.cache_key() == request.cache_key()

    def test_from_dict_accepts_registry_names(self):
        request = TuneRequest.from_dict(
            {"model": "gpt3-175b", "batch": 8, "chips": 16,
             "hw": "tpuv4-sim"}
        )
        assert request.model == GPT3
        assert request.hw == get_preset("tpuv4-sim")

    def test_from_dict_rejects_unknown_fields_and_schema(self):
        good = {"model": "gpt3-175b", "batch": 8, "chips": 16,
                "hw": "tpuv4-sim"}
        with pytest.raises(ValueError, match="unknown"):
            TuneRequest.from_dict({**good, "bogus": 1})
        with pytest.raises(ValueError, match="schema"):
            TuneRequest.from_dict({**good, "schema": 99})

    def test_run_matches_engine_function(self):
        request = tiny_request()
        direct = tune_model(TINY, 4, 16, TPUV4)
        served = request.run()
        assert served.mesh == direct.mesh
        assert served.block_seconds == direct.block_seconds
        assert served.passes == direct.passes


class TestPlanStore:
    def test_round_trip_all_modes(self, tmp_path):
        store = PlanStore(str(tmp_path))
        spec = FaultSpec(stragglers=1, seed=5)
        requests = [
            tiny_request(),
            tiny_request(mode="robust", spec=spec, ensemble=2),
            TuneRequest(
                model=TINY, batch=4, hw=TPUV4, mode="degraded",
                mesh=Mesh2D(4, 4), dead=(0, 0),
            ),
        ]
        for request in requests:
            result = execute(request)
            store.save(request, result)
            loaded = store.load(request)
            assert type(loaded) is type(result)
            assert loaded.mesh == result.mesh if hasattr(result, "mesh") \
                else True
        assert len(store) == 3

    def test_tune_record_restores_exact_passes(self, tmp_path):
        store = PlanStore(str(tmp_path))
        request = tiny_request(abft=True, sdc_rate=1e-3)
        result = execute(request)
        store.save(request, result)
        loaded = store.load(request)
        assert loaded.mesh == result.mesh
        assert loaded.block_seconds == result.block_seconds
        assert loaded.passes == result.passes

    def test_robust_record_rebuilds_fault_plans(self, tmp_path):
        store = PlanStore(str(tmp_path))
        spec = FaultSpec(stragglers=1, straggler_slowdown=1.4, seed=9)
        request = tiny_request(mode="robust", spec=spec, ensemble=3)
        result = execute(request)
        store.save(request, result)
        loaded = store.load(request)
        assert loaded.fault_plans == result.fault_plans
        assert loaded.robust_seconds == result.robust_seconds
        assert loaded.per_mesh_robust == result.per_mesh_robust

    def test_save_is_byte_deterministic(self, tmp_path):
        request = tiny_request()
        result = execute(request)
        store_a = PlanStore(str(tmp_path / "a"))
        store_b = PlanStore(str(tmp_path / "b"))
        path_a = store_a.save(request, result)
        path_b = store_b.save(request, execute(request))
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        request = tiny_request()
        path = store.save(request, execute(request))
        before = registry().counter_value("service.store.corrupt")
        with open(path, "w") as handle:
            handle.write('{"truncated": ')
        assert store.load(request) is None
        with open(path, "w") as handle:
            handle.write('{"schema": 99, "key": "zz"}')
        assert store.load(request) is None
        assert registry().counter_value("service.store.corrupt") >= before + 2

    def test_key_mismatch_is_a_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        request = tiny_request()
        other = tiny_request(chips=32)
        path = store.save(request, execute(request))
        # Re-address another config's record under this key: the
        # embedded request no longer hashes to the filename.
        forged = encode_record(
            request.cache_key(), other.canonical(), execute(other)
        )
        with open(path, "w") as handle:
            handle.write(forged)
        assert store.load(request) is None

    def test_nearest_neighbor_prefers_adjacent_chip_count(self, tmp_path):
        store = PlanStore(str(tmp_path))
        for chips in (8, 16, 64):
            req = tiny_request(chips=chips)
            store.save(req, execute(req))
        neighbor = store.nearest_neighbor(tiny_request(chips=32))
        assert neighbor.request.chips in (16, 64)
        assert neighbor.request.chips == 16  # tie breaks to fewer chips
        # Exact-chips records are not neighbors (they would be hits).
        assert store.nearest_neighbor(tiny_request(chips=16)).request.chips == 8

    def test_nearest_neighbor_requires_matching_knobs(self, tmp_path):
        store = PlanStore(str(tmp_path))
        req = tiny_request(chips=16, abft=True)
        store.save(req, execute(req))
        assert store.nearest_neighbor(tiny_request(chips=32)) is None


class TestPlanStoreEviction:
    def _seed(self, root, chip_counts):
        """Fill an unbounded store with one record per chip count,
        mtimes forced to a known LRU order (oldest first)."""
        store = PlanStore(root)
        requests = []
        for i, chips in enumerate(chip_counts):
            req = tiny_request(chips=chips)
            path = store.save(req, execute(req))
            os.utime(path, (1000 + i, 1000 + i))
            requests.append(req)
        return requests

    def test_max_records_evicts_lru(self, tmp_path):
        requests = self._seed(str(tmp_path), (4, 8, 16))
        before = registry().counter_value("service.store.evicted")
        store = PlanStore(str(tmp_path), max_records=2)
        newest = tiny_request(chips=32)
        store.save(newest, execute(newest))
        assert len(store) == 2
        assert store.load(requests[0]) is None  # oldest out
        assert store.load(requests[1]) is None
        assert store.load(requests[2]) is not None
        assert store.load(newest) is not None
        assert registry().counter_value("service.store.evicted") == before + 2

    def test_load_refreshes_recency(self, tmp_path):
        requests = self._seed(str(tmp_path), (4, 8))
        store = PlanStore(str(tmp_path), max_records=2)
        assert store.load(requests[0]) is not None  # now most recent
        newest = tiny_request(chips=16)
        store.save(newest, execute(newest))
        assert store.load(requests[0]) is not None
        assert store.load(requests[1]) is None  # became the LRU
        assert store.load(newest) is not None

    def test_max_bytes_evicts_lru(self, tmp_path):
        requests = self._seed(str(tmp_path), (4, 8))
        unbounded = PlanStore(str(tmp_path))
        sizes = [
            os.path.getsize(unbounded.path_for(req.cache_key()))
            for req in requests
        ]
        # Room for about two records: the third save pushes the
        # oldest out.
        store = PlanStore(str(tmp_path), max_bytes=2 * max(sizes) + 64)
        newest = tiny_request(chips=16)
        store.save(newest, execute(newest))
        assert store.load(requests[0]) is None  # oldest out
        assert store.load(requests[1]) is not None
        assert store.load(newest) is not None
        assert len(store) == 2

    def test_just_written_record_is_never_evicted(self, tmp_path):
        requests = self._seed(str(tmp_path), (4,))
        store = PlanStore(str(tmp_path), max_bytes=1)
        newest = tiny_request(chips=8)
        store.save(newest, execute(newest))
        assert store.load(requests[0]) is None
        assert store.load(newest) is not None  # protected, though huge
        assert len(store) == 1

    def test_unbounded_store_never_evicts(self, tmp_path):
        self._seed(str(tmp_path), (4, 8, 16))
        assert len(PlanStore(str(tmp_path))) == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_records": 0},
        {"max_bytes": 0},
        {"max_records": -5},
    ])
    def test_invalid_bounds_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            PlanStore(str(tmp_path), **kwargs)


class TestWarmTune:
    @pytest.mark.parametrize("chips", [16, 32, 64])
    def test_warm_equals_cold_bitwise(self, chips):
        cold = tune_model(TINY, 4, chips, TPUV4)
        for neighbor in (None, Mesh2D(2, 8), Mesh2D(4, 4), Mesh2D(8, 2)):
            warm = warm_tune(TINY, 4, chips, TPUV4, neighbor_mesh=neighbor)
            assert warm.mesh == cold.mesh
            assert warm.block_seconds == cold.block_seconds
            assert warm.passes == cold.passes

    def test_warm_per_mesh_is_subset_of_cold(self):
        cold = tune_model(TINY, 4, 64, TPUV4)
        warm = warm_tune(TINY, 4, 64, TPUV4, neighbor_mesh=cold.mesh)
        for shape, seconds in warm.per_mesh_seconds.items():
            assert cold.per_mesh_seconds[shape] == seconds

    def test_good_seed_prunes(self):
        cold = tune_model(TINY, 4, 64, TPUV4)
        before = registry().counter_value("service.warmstart.pass_prunes")
        warm_tune(TINY, 4, 64, TPUV4, neighbor_mesh=cold.mesh)
        assert (
            registry().counter_value("service.warmstart.pass_prunes")
            > before
        )


class TestTunerService:
    def test_three_tiers(self, tmp_path):
        request = tiny_request()
        with TunerService(str(tmp_path), workers=2) as svc:
            first = svc.serve(request)
            second = svc.serve(request)  # memory
        assert first is second
        with TunerService(str(tmp_path), workers=2) as svc:
            third = svc.serve(request)  # disk
        assert third.mesh == first.mesh
        assert third.block_seconds == first.block_seconds

    def test_memory_only_service(self):
        with TunerService(None, workers=1) as svc:
            result = svc.serve(tiny_request())
        assert result.mesh == tune_model(TINY, 4, 16, TPUV4).mesh

    def test_warm_start_from_neighbor(self, tmp_path):
        with TunerService(str(tmp_path), workers=1) as svc:
            svc.serve(tiny_request(chips=16))
            before = registry().counter_value("service.warmstart.seeded")
            warm = svc.serve(tiny_request(chips=32))
        assert registry().counter_value("service.warmstart.seeded") == \
            before + 1
        cold = tune_model(TINY, 4, 32, TPUV4)
        assert warm.mesh == cold.mesh
        assert warm.block_seconds == cold.block_seconds
        assert warm.passes == cold.passes

    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        """Two threads, same canonical config: one search, one write."""
        request = tiny_request(chips=64)
        alias = tiny_request(chips=64, engine="compiled")  # same canonical
        writes_before = registry().counter_value("service.store.writes")
        runs_before = registry().counter_value(
            "tuner.runs", labels={"model": TINY.name}
        )
        results = {}
        barrier = threading.Barrier(2)
        with TunerService(str(tmp_path), workers=2) as svc:
            def hit(name, req):
                barrier.wait()
                results[name] = svc.serve(req)

            threads = [
                threading.Thread(target=hit, args=("a", request)),
                threading.Thread(target=hit, args=("b", alias)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results["a"] is results["b"] or results["a"] == results["b"]
        assert (
            registry().counter_value("service.store.writes")
            == writes_before + 1
        )
        assert (
            registry().counter_value(
                "tuner.runs", labels={"model": TINY.name}
            )
            == runs_before + 1
        )
        store = PlanStore(str(tmp_path))
        assert len(store) == 1

    def test_stats_shape(self, tmp_path):
        with TunerService(str(tmp_path), workers=1) as svc:
            svc.serve(tiny_request())
            svc.serve(tiny_request())
            stats = svc.stats()
        for key in (
            "requests", "served_from_memory", "store_hits",
            "store_hit_rate", "warmstart_prune_ratio",
            "latency_p50_ms", "latency_p95_ms", "queue_depth",
        ):
            assert key in stats
        assert stats["queue_depth"] == 0.0
        assert stats["latency_p95_ms"] >= stats["latency_p50_ms"] >= 0.0

    def test_closed_service_rejects_submissions(self):
        svc = TunerService(None, workers=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(tiny_request())

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            TunerService(None, workers=0)


class TestLoadGen:
    def test_zipf_mix_is_seeded(self):
        catalog = default_catalog(
            models=(TINY,), chip_counts=(16, 32), batches=(4,)
        )
        a = zipf_mix(catalog, 50, seed=3)
        b = zipf_mix(catalog, 50, seed=3)
        assert a == b
        assert zipf_mix(catalog, 50, seed=4) != a
        # Rank 0 dominates a zipf draw.
        top = sum(1 for r in a if r == catalog[0])
        assert top >= len(a) // 3

    def test_zipf_mix_validation(self):
        with pytest.raises(ValueError, match="empty"):
            zipf_mix([], 5)
        with pytest.raises(ValueError, match="queries"):
            zipf_mix([tiny_request()], 0)

    def test_run_load_reports(self, tmp_path):
        from repro.service import run_load

        catalog = default_catalog(
            models=(TINY,), chip_counts=(16, 32), batches=(4,)
        )
        mix = zipf_mix(catalog, 12, seed=0)
        report = run_load(mix, str(tmp_path), workers=2)
        assert report.queries == 12
        assert report.unique == 2
        assert report.throughput_qps > 0
        assert report.cold_seconds_per_query > 0
        assert report.speedup > 0
        assert 0.0 <= report.stats["store_hit_rate"] <= 1.0
