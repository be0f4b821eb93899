"""Campaign queries and the experiment spec registry."""

import pickle

import pytest

from repro import __version__
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    campaign_names,
    campaign_specs,
    counter_history,
    cross_campaign_totals,
    get_campaign,
    make_record,
    point_key,
    ratio_history,
    report,
    rows,
    status,
)
from repro.cli import run_experiment
from repro.experiments import EXPERIMENTS


def _metric(name, value, kind="counter"):
    return {"type": kind, "name": name, "value": value}


def _append_ok(store, name, point, result, metrics=()):
    key = point_key(name, point)
    store.append(
        name,
        make_record(name, key, point, "ok", result=result, metrics=metrics),
    )
    return key


class TestRegistry:
    def test_every_experiment_publishes_a_spec(self):
        from repro.experiments import EXPERIMENTS

        specs = campaign_specs()
        assert set(specs) == set(EXPERIMENTS)
        for name, spec in specs.items():
            assert spec.name == name

    def test_specs_are_runnable_contracts(self):
        for spec in campaign_specs().values():
            points = spec.points()
            assert len(points) > 0
            # The unit of pool distribution must survive pickling.
            pickle.dumps(spec.point)

    def test_campaign_names_sorted(self):
        names = campaign_names()
        assert names == sorted(names)
        assert "fig9" in names and "ablation-sdc" in names

    def test_get_campaign_unknown_names_the_options(self):
        with pytest.raises(KeyError, match="known:.*fig9"):
            get_campaign("nope")


class TestStatus:
    def test_counts_and_versions(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        _append_ok(store, "demo", 1, 10)
        key = point_key("demo", 2)
        store.append(
            "demo",
            make_record(
                "demo", key, 2, "failed", error=("Boom", "nope")
            ),
        )
        st = status(store, "demo")
        assert (st.stored, st.ok, st.failed) == (2, 1, 1)
        assert st.failed_keys == (key,)
        assert st.versions == (__version__,)
        text = st.render()
        assert "campaign demo: 2 stored (1 ok, 1 failed)" in text
        assert f"failed: {key}" in text
        assert __version__ in text


class TestRowsAndReport:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_report_matches_direct_main(self, tmp_path, name):
        """A stored campaign reports exactly what ``meshslice run`` prints."""
        spec = get_campaign(name)
        store = CampaignStore(str(tmp_path))
        summary = CampaignRunner(store, spec.name, spec.point,
                                 jobs=1).run(spec.points())
        assert summary.complete and summary.failed == 0
        assert report(store, spec.name, spec) == run_experiment(name)

    def test_failed_records_contribute_no_rows(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        spec = CampaignSpec(
            name="demo",
            points=lambda: [1, 2],
            point=lambda p: p,
            render=lambda rs: str(rs),
            flatten=False,
        )
        _append_ok(store, "demo", 1, 11)
        store.append(
            "demo",
            make_record(
                "demo", point_key("demo", 2), 2, "failed",
                error=("Boom", "x"),
            ),
        )
        assert rows(store, "demo", spec) == [11]

    def test_flatten_concatenates_row_lists(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        spec = CampaignSpec(
            name="demo",
            points=lambda: [1],
            point=lambda p: [p],
            render=lambda rs: str(rs),
            flatten=True,
        )
        _append_ok(store, "demo", 1, [11, 12])
        _append_ok(store, "demo", 2, [13])
        assert rows(store, "demo", spec) == [11, 12, 13]


class TestMetricHistory:
    def test_counter_history_in_store_order(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        k1 = _append_ok(store, "demo", 1, 0,
                        metrics=[_metric("sim.runs", 3.0)])
        k2 = _append_ok(store, "demo", 2, 0, metrics=[
            _metric("sim.runs", 2.0),
            _metric("sim.runs", 1.0),  # labeled series sum together
            _metric("other", 9.0),
            _metric("sim.runs", 7.0, kind="histogram"),
        ])
        assert counter_history(store, "demo", "sim.runs") == [
            (k1, 3.0), (k2, 3.0)
        ]

    def test_ratio_history_handles_zero_totals(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        k1 = _append_ok(store, "demo", 1, 0, metrics=[
            _metric("hits", 3.0), _metric("misses", 1.0),
        ])
        k2 = _append_ok(store, "demo", 2, 0)
        assert ratio_history(store, "demo", "hits", "misses") == [
            (k1, 0.75), (k2, 0.0)
        ]

    def test_cross_campaign_totals_defaults_to_all(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        _append_ok(store, "one", 1, 0, metrics=[_metric("sim.runs", 2.0)])
        _append_ok(store, "one", 2, 0, metrics=[_metric("sim.runs", 3.0)])
        _append_ok(store, "two", 1, 0, metrics=[_metric("sim.runs", 1.0)])
        assert cross_campaign_totals(store, "sim.runs") == {
            "one": 5.0, "two": 1.0
        }
        assert cross_campaign_totals(store, "sim.runs", names=["two"]) == {
            "two": 1.0
        }
