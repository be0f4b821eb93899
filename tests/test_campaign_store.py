"""The campaign record store: codec, schema, appends, loads, repair."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Dataflow, GeMMShape, Mesh2D, __version__
from repro.campaign import (
    CampaignStore,
    SCHEMA_VERSION,
    canonical_json,
    decode_value,
    encode_record,
    encode_value,
    make_record,
    point_key,
    validate_record,
)
from repro.campaign.records import record_metrics
from repro.obs.registry import MetricsRegistry, registry

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _record(key="k", status="ok", **overrides):
    base = dict(
        campaign="demo",
        key=key,
        point=(1, 2),
        status=status,
        result=[1.5] if status == "ok" else None,
        error=("Boom", "it broke") if status == "failed" else None,
    )
    base.update(overrides)
    return make_record(**base)


class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -3, 2.5, "text",
        [1, [2, 3]], {"a": 1, "b": {"c": None}},
    ])
    def test_json_values_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_round_trip_preserves_type(self):
        value = (1, (2, "x"), [3, (4,)])
        out = decode_value(encode_value(value))
        assert out == value
        assert isinstance(out, tuple) and isinstance(out[1], tuple)
        assert isinstance(out[2], list) and isinstance(out[2][1], tuple)

    def test_enum_round_trip(self):
        out = decode_value(encode_value(Dataflow.OS))
        assert out is Dataflow.OS

    def test_dataclass_round_trip(self):
        mesh = Mesh2D(4, 8)
        shape = GeMMShape(m=64, n=32, k=16)
        out = decode_value(encode_value((mesh, shape)))
        assert out == (mesh, shape)
        assert isinstance(out[0], Mesh2D) and isinstance(out[1], GeMMShape)

    def test_numpy_scalars_coerce_to_python(self):
        encoded = encode_value([np.int64(3), np.float64(2.5)])
        assert encoded == [3, 2.5]
        assert type(encoded[0]) is int and type(encoded[1]) is float

    def test_marker_collision_rejected(self):
        with pytest.raises(TypeError):
            encode_value({"__tuple__": [1]})

    def test_foreign_ref_refused_without_import(self):
        """A record naming a module outside repro never imports it."""
        script = (
            "import sys\n"
            "from repro.campaign.codec import decode_value\n"
            "try:\n"
            "    decode_value({'__dataclass__': 'this:x', 'fields': {}})\n"
            "except ValueError:\n"
            "    print('refused', 'this' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.stdout == "refused False\n", proc.stderr

    @pytest.mark.parametrize("ref", [
        "repro.no_such_module:Row", "repro:NoSuchRow", "reprox:Row", 7,
    ])
    def test_unresolvable_ref_is_value_error(self, ref):
        with pytest.raises(ValueError):
            decode_value({"__dataclass__": ref, "fields": {}})
        with pytest.raises(ValueError):
            decode_value({"__enum__": ref, "name": "OS"})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError):
            encode_value({1: "a"})

    def test_unencodable_value_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_point_key_is_stable_and_namespaced(self):
        key = point_key("fig9", (1, 2))
        assert key == point_key("fig9", (1, 2))
        assert len(key) == 64 and int(key, 16) >= 0
        assert key != point_key("fig10", (1, 2))
        assert key != point_key("fig9", (2, 1))


class TestRecords:
    def test_make_record_shape(self):
        record = _record()
        assert record["schema"] == SCHEMA_VERSION
        assert record["version"] == __version__
        assert record["status"] == "ok" and record["error"] is None
        assert validate_record(record) is record

    def test_failed_record_carries_structured_error(self):
        record = _record(status="failed")
        assert record["result"] is None
        assert record["error"] == {"type": "Boom", "message": "it broke"}

    def test_failed_without_error_rejected(self):
        with pytest.raises(ValueError):
            make_record("demo", "k", 1, "failed")

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            make_record("demo", "k", 1, "running")

    @pytest.mark.parametrize("mutation", [
        {"schema": 99},
        {"metrics": "nope"},
        {"status": "meh"},
        {"error": {"type": 1, "message": "x"}},
    ])
    def test_validate_rejects_malformed(self, mutation):
        record = dict(_record())
        record.update(mutation)
        with pytest.raises(ValueError):
            validate_record(record)

    def test_encode_record_is_canonical_jsonl(self):
        line = encode_record(_record())
        assert line.endswith("\n") and line.count("\n") == 1
        parsed = json.loads(line)
        assert line == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_record_metrics_keeps_only_deterministic_series(self):
        reg = MetricsRegistry()
        reg.inc("sim.runs", 2.0)
        reg.observe("engine.queue_wait_seconds", 1e-3)
        reg.set_gauge("service.queue.depth", 4.0)
        reg.inc("campaign.retries")
        reg.observe("service.latency_ms", 12.0)
        kept = record_metrics(reg.snapshot())
        names = [m["name"] for m in kept]
        assert "sim.runs" in names
        assert "engine.queue_wait_seconds" in names
        assert "service.queue.depth" not in names  # gauge
        assert "campaign.retries" not in names  # campaign bookkeeping
        assert "service.latency_ms" not in names  # wall clock


class TestCampaignStore:
    def test_append_load_round_trip(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        for key in ("a", "b"):
            store.append("demo", _record(key=key))
        loaded = store.load("demo")
        assert list(loaded) == [
            _record(key="a")["key"], _record(key="b")["key"]
        ]
        assert loaded["a"]["result"] == [1.5]
        assert store.campaigns() == ["demo"]

    def test_last_record_wins_in_first_occurrence_order(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.append("demo", _record(key="a", status="failed"))
        store.append("demo", _record(key="b"))
        store.append("demo", _record(key="a"))  # supersedes the failure
        loaded = store.load("demo")
        assert list(loaded) == ["a", "b"]
        assert loaded["a"]["status"] == "ok"

    @pytest.mark.parametrize("name", ["", "a/b", "a b", "a\nb", "../up"])
    def test_invalid_names_rejected(self, tmp_path, name):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.path_for(name)

    def test_corrupt_line_is_skipped_never_fatal(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.append("demo", _record(key="a"))
        with open(store.path_for("demo"), "a") as handle:
            handle.write('{"torn": \n')
        store.append("demo", _record(key="b"))
        before = registry().counter_value("campaign.store.corrupt")
        loaded = store.load("demo")
        assert list(loaded) == ["a", "b"]
        assert registry().counter_value("campaign.store.corrupt") == before + 1

    def test_repair_is_a_noop_on_a_healthy_file(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.append("demo", _record(key="a"))
        with open(store.path_for("demo"), "rb") as handle:
            original = handle.read()
        report = store.repair("demo")
        assert report.kept == 1 and report.quarantined == 0
        with open(store.path_for("demo"), "rb") as handle:
            assert handle.read() == original
        assert not os.path.exists(store.quarantine_path("demo"))

    def test_repair_quarantines_torn_tail(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.append("demo", _record(key="a"))
        with open(store.path_for("demo"), "rb") as handle:
            healthy = handle.read()
        with open(store.path_for("demo"), "ab") as handle:
            handle.write(b'{"half": ')  # SIGKILL mid-append
        report = store.repair("demo")
        assert report.kept == 1 and report.quarantined == 1
        with open(store.path_for("demo"), "rb") as handle:
            assert handle.read() == healthy  # byte-identical restore
        with open(store.quarantine_path("demo"), "rb") as handle:
            assert b'{"half": ' in handle.read()

    def test_repair_restores_newline_of_valid_unterminated_tail(
        self, tmp_path
    ):
        store = CampaignStore(str(tmp_path))
        store.append("demo", _record(key="a"))
        with open(store.path_for("demo"), "rb") as handle:
            healthy = handle.read()
        # Kill landed after the bytes but before the terminator made
        # it out: strip the trailing newline.
        with open(store.path_for("demo"), "wb") as handle:
            handle.write(healthy[:-1])
        report = store.repair("demo")
        assert report.kept == 1 and report.quarantined == 0
        with open(store.path_for("demo"), "rb") as handle:
            assert handle.read() == healthy

    def test_missing_file_loads_empty(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        assert store.load("demo") == {}
        assert store.repair("demo").kept == 0
        assert store.campaigns() == []


class TestStoreRecordEncoding:
    def test_dataclass_points_survive_the_store(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        point = (Mesh2D(2, 4), Dataflow.LS, GeMMShape(m=8, n=8, k=8))
        key = point_key("demo", point)
        store.append("demo", make_record("demo", key, point, "ok", result=3))
        loaded = store.load("demo")[key]
        assert decode_value(loaded["point"]) == point
