"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "530 / 120 MB" in out

    def test_fig3a_small(self, capsys):
        assert main(["fig3a", "--scale", "0.02", "--ticks", "1"]) == 0
        out = capsys.readouterr().out
        assert "Class metadata" in out
        assert "vm1" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--scale", "0.02", "--ticks", "1"]) == 0
        out = capsys.readouterr().out
        assert "Guest kernel" in out
        assert "TOTAL" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "before sharing" in out
        assert "preloaded" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "max acceptable VMs" in out

    def test_scenario_with_deployment(self, capsys):
        code = main([
            "scenario", "tuscany3", "--deployment", "shared-copy",
            "--scale", "0.1", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tuscany3" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultsCli:
    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        assert main(["fig2", "--faults", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "bogus" in captured.err

    def test_fig2_with_faults_prints_reports(self, capsys):
        code = main([
            "fig2", "--faults", "1337",
            "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Collection report" in out
        assert "Validation report" in out

    def test_doctor_clean(self, capsys):
        code = main([
            "doctor", "daytrader4", "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "doctor: daytrader4" in out
        assert "clean: all cross-layer invariants hold" in out

    def test_doctor_with_faults(self, capsys):
        code = main([
            "doctor", "daytrader4", "--faults", "1337:0.5",
            "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Collection report" in out
        assert "Validation report" in out
        assert "breakdown under this dump" in out

    def test_fig6_rejects_faults(self, capsys):
        """fig6 models PowerVM without a crash dump: nothing to inject."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--faults", "1", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "--faults" in capsys.readouterr().err


#: A value for every shared option a subcommand might wrongly accept
#: (``=``-joined, so an optional positional cannot swallow the value).
_OPTION_ARGS = {
    "--ticks": "--ticks=2",
    "--scan-policy": "--scan-policy=hybrid",
    "--scan-engine": "--scan-engine=batch",
    "--tiering": "--tiering=compress",
    "--thp-policy": "--thp-policy=always",
    "--hugepages": "--hugepages=64",
    "--backend": "--backend=dict",
    "--profile": "--profile=profile.json",
    "--faults": "--faults=1337",
    "--jobs": "--jobs=2",
    "--no-cache": "--no-cache",
    "--cache-dir": "--cache-dir=cache",
}

#: Required positionals, so that only the option can be the usage error.
_POSITIONALS = {
    command: ("daytrader4",) for command in ("scenario", "profile", "doctor")
}

#: (subcommand, option) pairs whose handler never reads the option.
_IGNORED = (
    [
        ("pressure", option)
        for option in (
            "--scan-policy", "--scan-engine", "--backend", "--tiering",
            "--thp-policy", "--hugepages", "--faults", "--profile",
        )
    ]
    + [
        ("hugepages", option)
        for option in (
            "--scan-policy", "--scan-engine", "--backend", "--tiering",
            "--thp-policy", "--faults", "--profile",
        )
    ]
    + [
        (figure, option)
        for figure in ("fig7", "fig8")
        for option in (
            "--backend", "--tiering", "--thp-policy", "--hugepages",
            "--profile",
        )
    ]
    + [
        (command, option)
        for command in (
            "fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b",
            "fig5c", "scenario", "profile", "doctor",
        )
        for option in ("--jobs", "--backend")
    ]
    + [
        ("doctor", option)
        for option in ("--profile", "--no-cache", "--cache-dir")
    ]
    + [
        ("fig6", option)
        for option in (
            "--ticks", "--scan-policy", "--scan-engine", "--tiering",
            "--thp-policy", "--hugepages", "--backend", "--profile",
            "--faults", "--jobs", "--no-cache", "--cache-dir",
        )
    ]
)


class TestOptionGroups:
    """Each subcommand accepts only the options its handler reads."""

    @pytest.mark.parametrize(
        "command, option", _IGNORED,
        ids=[f"{command}{option}" for command, option in _IGNORED],
    )
    def test_ignored_option_is_a_usage_error(self, command, option, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(
                [command, *_POSITIONALS.get(command, ()), _OPTION_ARGS[option]]
            )
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err

    def test_family_commands_keep_their_own_arguments(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args([
            "pressure", "mixed3", "--ram-fraction", "0.5", "--ticks", "3",
            "--jobs", "2", "--json", "--bench-out", "out.json",
        ])
        assert (args.name, args.ram_fraction, args.ticks, args.jobs) == (
            "mixed3", 0.5, 3, 2
        )
        assert args.json and args.bench_out == "out.json"
        args = parser.parse_args(
            ["hugepages", "tuscany3", "--hugepages", "64", "--no-cache"]
        )
        assert (args.name, args.hugepages, args.no_cache) == (
            "tuscany3", 64, True
        )

    @pytest.mark.parametrize("figure", ["fig7", "fig8"])
    def test_consolidation_reads_ticks(self, figure, monkeypatch, capsys):
        import repro.cli as cli

        seen = {}

        def fake_sweep(**kwargs):
            seen.update(kwargs)
            raise cli.ReproError("stop after recording the arguments")

        target = {
            "fig7": "run_daytrader_consolidation",
            "fig8": "run_specj_consolidation",
        }[figure]
        monkeypatch.setattr(cli, target, fake_sweep)
        assert main([figure, "--ticks", "3"]) == 1
        assert seen["measurement_ticks"] == 3
        capsys.readouterr()

    def test_consolidation_ticks_default_matches_driver(self):
        import inspect

        from repro.cli import _build_parser
        from repro.core.experiments.consolidation import (
            run_daytrader_consolidation,
            run_specj_consolidation,
        )

        args = _build_parser().parse_args(["fig7"])
        for sweep in (run_daytrader_consolidation, run_specj_consolidation):
            default = inspect.signature(sweep).parameters[
                "measurement_ticks"
            ].default
            assert args.ticks == default


class TestFleetCli:
    ARGS = [
        "fleet", "--hosts", "12", "--vms", "40",
        "--chaos-plan", "77:0.3", "--horizon-minutes", "5",
    ]

    def test_fleet_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fault(s) injected" in out
        assert "sharing savings" in out
        assert "placement fingerprint" in out

    def test_fleet_json_report(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hosts"] == 12
        assert report["violations"] == 0
        assert report["faults_injected"] > 0

    def test_fleet_bench_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_fleet.json"
        assert main(self.ARGS + ["--bench-out", str(out_file)]) == 0
        import json

        report = json.loads(out_file.read_text())
        assert report["placement_fingerprint"]

    def test_fleet_without_chaos(self, capsys):
        assert main(["fleet", "--hosts", "5", "--vms", "10"]) == 0
        out = capsys.readouterr().out
        assert "chaos plan off: 0 fault(s)" in out

    def test_fleet_bad_chaos_plan_is_clean_error(self, capsys):
        assert main(["fleet", "--chaos-plan", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err
