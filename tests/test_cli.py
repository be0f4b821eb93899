"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, normalize_argv, run_experiment


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "table3" in out
        assert "ablation-2.5d" in out
        assert "ablation-faults" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure-nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_ablation(self, capsys):
        assert main(["ablation-2.5d"]) == 0
        out = capsys.readouterr().out
        assert "MeshSlice+DP" in out
        assert "done in" in out

    def test_run_subcommand(self, capsys):
        assert main(["run", "ablation-2.5d"]) == 0
        out = capsys.readouterr().out
        assert "MeshSlice+DP" in out

    def test_run_experiment_returns_report(self):
        report = run_experiment("ablation-2.5d")
        assert "2.5D GeMM" in report

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_parser(self):
        args = build_parser().parse_args(["run", "fig9"])
        assert args.command == "run"
        assert args.experiments == ["fig9"]

    def test_parser_jobs_flag(self):
        args = build_parser().parse_args(["run", "fig9", "--jobs", "4"])
        assert args.jobs == 4

    def test_normalize_legacy_experiment(self):
        assert normalize_argv(["fig9"]) == ["run", "fig9"]
        assert normalize_argv(["fig9", "--jobs", "8"]) == [
            "run", "fig9", "--jobs", "8"
        ]
        assert normalize_argv(["all"]) == ["run", "all"]

    def test_normalize_keeps_subcommands(self):
        assert normalize_argv(["run", "fig9"]) == ["run", "fig9"]
        assert normalize_argv(["tune", "gpt3-175b"]) == ["tune", "gpt3-175b"]
        assert normalize_argv(["list"]) == ["list"]
        assert normalize_argv([]) == []

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage: meshslice" in capsys.readouterr().err

    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-175b" in out and "llama2-70b" in out

    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "tpuv4-sim" in out and "gpu-logical-mesh" in out

    def test_tune_command(self, capsys):
        assert main(["tune", "llama2-70b", "--chips", "16"]) == 0
        out = capsys.readouterr().out
        assert "chosen mesh" in out

    def test_tune_requires_model(self, capsys):
        assert main(["tune"]) == 2

    def test_tune_unknown_model(self, capsys):
        assert main(["tune", "gpt5", "--chips", "16"]) == 2


class TestFaultsCommand:
    def test_requires_model(self, capsys):
        assert main(["faults"]) == 2
        assert "usage: meshslice faults" in capsys.readouterr().err

    def test_unknown_model(self, capsys):
        assert main(["faults", "gpt5", "--chips", "16"]) == 2

    def test_robust_tuning_report(self, capsys):
        assert main([
            "faults", "gpt3-175b", "--chips", "16",
            "--stragglers", "2", "--straggler-slowdown", "2.0",
            "--ensemble", "4", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "robust mesh" in out
        assert "p95" in out
        assert "inflation" in out

    def test_rejects_bad_spec(self, capsys):
        assert main([
            "faults", "gpt3-175b", "--chips", "16",
            "--straggler-slowdown", "0.5",
        ]) == 2
        assert capsys.readouterr().err.strip()


class TestFaultsFlagValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--outage-rate", "2.0"),
        ("--outage-rate", "-0.1"),
        ("--straggler-slowdown", "0.5"),
        ("--link-slowdown", "0.9"),
        ("--stragglers", "-1"),
        ("--degraded-links", "-2"),
        ("--jitter", "-1"),
        ("--ensemble", "0"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, flag, value):
        assert main([
            "faults", "gpt3-175b", "--chips", "16", flag, value,
        ]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err


class TestRecoveryCommand:
    def test_report(self, capsys):
        assert main(["recovery", "gpt3-175b", "--chips", "16"]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "Young/Daly checkpoint interval" in out
        assert "restart" in out and "degrade" in out
        assert "best policy" in out

    def test_requires_model(self, capsys):
        assert main(["recovery"]) == 2
        assert "usage: meshslice recovery" in capsys.readouterr().err

    def test_unknown_model(self, capsys):
        assert main(["recovery", "gpt5", "--chips", "16"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--chip-mtbf-hours", "-5"),
        ("--chip-mtbf-hours", "0"),
        ("--repair-minutes", "-1"),
        ("--checkpoint-seconds", "0"),
        ("--restart-seconds", "-3"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, flag, value):
        assert main([
            "recovery", "gpt3-175b", "--chips", "16", flag, value,
        ]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err

    def test_too_few_chips(self, capsys):
        assert main(["recovery", "gpt3-175b", "--chips", "2"]) == 2
        assert "--chips" in capsys.readouterr().err

    def test_normalize_keeps_recovery(self):
        assert normalize_argv(["recovery", "gpt3-175b"]) == [
            "recovery", "gpt3-175b"
        ]


class TestSdcCommand:
    def test_report(self, capsys):
        assert main([
            "sdc", "--rate", "0.05", "--mesh", "2x2", "--trials", "2",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "silent data corruption" in out
        assert "escapes (bare)" in out and "escapes (abft)" in out
        assert "abft overhead" in out
        assert "2x2" in out

    @pytest.mark.parametrize("flag,value", [
        ("--rate", "5"),
        ("--rate", "-0.1"),
        ("--trials", "0"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, flag, value):
        assert main(["sdc", flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err

    def test_bad_mesh_spec(self, capsys):
        assert main(["sdc", "--mesh", "3y3", "--trials", "1"]) == 2
        assert "3y3" in capsys.readouterr().err

    def test_unknown_hw_preset(self, capsys):
        assert main([
            "sdc", "--hw", "abacus", "--trials", "1", "--mesh", "2x2",
        ]) == 2
        assert capsys.readouterr().err.strip()

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sdc", "--algorithm", "cannon"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_normalize_keeps_sdc(self):
        assert normalize_argv(["sdc", "--rate", "0.01"]) == [
            "sdc", "--rate", "0.01"
        ]


class TestSdcFlagValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--seed", "-1"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, flag, value):
        assert main(["sdc", flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err


class TestServeFlagValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--store-max-records", "0"),
        ("--store-max-records", "-1"),
        ("--store-max-bytes", "0"),
        ("--workers", "0"),
        ("--repeat", "0"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(
        self, capsys, tmp_path, flag, value
    ):
        assert main([
            "serve", "--store", str(tmp_path / "plans"), flag, value,
        ]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err

    def test_store_bounds_require_store(self, capsys):
        assert main(["serve", "--store-max-records", "5"]) == 2
        err = capsys.readouterr().err.strip()
        assert "--store" in err


class TestCampaignCommand:
    def test_run_status_report_resume(self, capsys, tmp_path):
        store = str(tmp_path / "sweeps")
        assert main([
            "campaign", "run", "ablation-2.5d", "--store", store,
            "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign ablation-2.5d:" in out
        assert "ran 2, ok 2, failed 0" in out

        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "campaign ablation-2.5d: 2 stored (2 ok, 0 failed)" in out
        assert "versions:" in out

        assert main([
            "campaign", "report", "ablation-2.5d", "--store", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "2.5D GeMM" in out

        assert main([
            "campaign", "resume", "ablation-2.5d", "--store", store,
            "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "(2 already stored); ran 0" in out

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"),
        ("--jobs", "-1"),
        ("--retries", "-1"),
        ("--backoff", "-0.5"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(
        self, capsys, tmp_path, flag, value
    ):
        assert main([
            "campaign", "run", "ablation-2.5d",
            "--store", str(tmp_path / "sweeps"), flag, value,
        ]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err

    def test_unknown_campaign_names_the_options(self, capsys, tmp_path):
        assert main([
            "campaign", "run", "nope", "--store", str(tmp_path / "s"),
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign 'nope'" in err
        assert "fig9" in err

    def test_report_without_store_file(self, capsys, tmp_path):
        assert main([
            "campaign", "report", "fig9", "--store", str(tmp_path / "s"),
        ]) == 2
        assert "no store file for 'fig9'" in capsys.readouterr().err

    def test_status_of_empty_store(self, capsys, tmp_path):
        assert main([
            "campaign", "status", "--store", str(tmp_path / "s"),
        ]) == 2
        assert "no campaigns in" in capsys.readouterr().err

    def test_bare_campaign_prints_usage(self, capsys):
        assert main(["campaign"]) == 2
        assert "usage: meshslice campaign" in capsys.readouterr().err

    def test_normalize_keeps_campaign(self):
        assert normalize_argv(["campaign", "status", "--store", "x"]) == [
            "campaign", "status", "--store", "x"
        ]


class TestClusterFlagValidation:
    @pytest.mark.parametrize("command", ["tune", "profile"])
    @pytest.mark.parametrize("flag", ["--chips", "--batch"])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, command, flag):
        assert main([command, "gpt3-175b", "--chips", "16", flag, "0"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err


class TestRunFlagValidation:
    def test_bad_jobs_exits_2_naming_the_flag(self, capsys):
        assert main(["run", "ablation-2.5d", "--jobs", "0"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert "--jobs" in err


class TestElasticFlagValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--spares", "-1"),
        ("--duration-days", "0"),
        ("--seed", "-1"),
        ("--chip-mtbf-hours", "0"),
        ("--repair-minutes", "-1"),
        ("--checkpoint-seconds", "0"),
        ("--restart-seconds", "-1"),
        ("--events", "events.jsonl"),  # with the default --policy all
        ("--mesh", "1x2"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, capsys, flag, value):
        assert main(["elastic", "gpt3-175b", flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert flag in err


class TestCampaignReportDecoding:
    def test_foreign_type_ref_exits_2(self, capsys, tmp_path):
        store = tmp_path / "sweeps"
        assert main([
            "campaign", "run", "ablation-2.5d", "--store", str(store),
            "--jobs", "1",
        ]) == 0
        path = store / "ablation-2.5d.jsonl"
        text = path.read_text()
        assert '"__dataclass__":"repro.' in text
        path.write_text(
            text.replace('"__dataclass__":"repro.', '"__dataclass__":"this.')
        )
        capsys.readouterr()
        assert main([
            "campaign", "report", "ablation-2.5d", "--store", str(store),
        ]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, "diagnostic must be one line"
        assert err.startswith("meshslice campaign report:")


class TestFlagTable:
    def test_overrides_name_commands_that_take_the_flag(self):
        from repro.cli import FLAGS, SUBCOMMANDS

        takes = {}
        for command in SUBCOMMANDS:
            for label, sub in [(command.name, command)] + [
                (f"{command.name} {action.name}", action)
                for action in command.actions
            ]:
                for name in sub.flags:
                    takes.setdefault(name, set()).add(label)
        assert set(takes) == set(FLAGS), "every flag is declared and used"
        for name, flag in FLAGS.items():
            assert set(flag.overrides) <= takes[name], name
