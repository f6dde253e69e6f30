"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--strategies", "corropt,bogus"],
            ["sweep", "--presets", "bogus"],
            ["sweep", "--penalties", "bogus"],
            ["sweep", "--chaos-preset", "mild,bogus"],
            ["sweep", "--congestion-presets", "bogus"],
            ["tournament", "--strategies", "bogus"],
            ["tournament", "--presets", "bogus"],
            ["tournament", "--penalties", "bogus"],
            ["localize", "--sensing", "bogus"],
            ["localize", "--congestion-presets", "bogus"],
            ["fleet", "--strategy", "bogus"],
            ["simulate", "--strategies", "bogus"],
        ],
    )
    def test_unknown_name_in_a_list_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--seeds", "3:1"],
            ["sweep", "--seeds", "a:b"],
            ["sweep", "--repair-seeds", ","],
            ["sweep", "--capacities", "abc"],
            ["sweep", "--lg-coverages", ""],
            ["tournament", "--seeds", "x"],
            ["tournament", "--capacities", "0.5,y"],
            ["tournament", "--lg-coverages", "0.9:1"],
            ["sweep", "--seeds", "2:2"],
            ["localize", "--seeds", ""],
            ["localize", "--miswire-pairs", "x"],
        ],
        ids=" ".join,
    )
    def test_malformed_or_empty_number_list_is_a_usage_error(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "list:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--capacity", "1.5"],
            ["chaos", "--scale", "0"],
            ["chaos", "--missed-polls", "2"],
            ["chaos", "--days", "-1"],
            ["simulate", "--capacity", "1.5"],
            ["simulate", "--scale", "0"],
            ["fleet", "--dcns", "20"],
            ["tournament", "--lg-coverages", "2"],
            ["serve", "--repair-accuracy", "1.5"],
            ["serve", "--repair-accuracy", "-2"],
            ["chaos", "--repair-accuracy", "1.5"],
            ["chaos", "--repair-accuracy", "-2"],
            ["simulate", "--repair-accuracy", "1.5"],
            ["simulate", "--repair-accuracy", "-2"],
            ["serve", "--events", "-5", "--days", "0.05", "--scale", "0.1"],
            ["sweep", "--events", "-5", "--days", "1", "--scale", "0.1"],
            ["chaos", "--scale", "inf"],
            ["serve", "--events", "nan", "--days", "0.05", "--scale", "0.1"],
            ["sweep", "--events", "nan", "--days", "1", "--scale", "0.1"],
            ["simulate", "--lg-coverage", "1.5"],
            ["chaos", "--miswire-pairs", "-2"],
            ["topology", "--pods", "0"],
            ["topology", "--kind", "fattree", "--k", "3"],
            ["gadget", "--vars", "2"],
            ["study", "--dcns", "0"],
            ["study", "--dcns", "16"],
        ],
        ids=" ".join,
    )
    def test_refused_numeric_flag_is_a_usage_error(self, argv, capsys):
        """The config's own rule, reported as one usage line with exit 2:
        no traceback, no run."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {argv[0]}: error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--events", "-5"],  # not `--events-out -5`
            ["serve", "--resume", "x.ckpt"],  # not `--resume-from`
        ],
        ids=" ".join,
    )
    def test_abbreviated_option_is_refused(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """A prefix of an option is not that option: exit 2, no run and
        no file written where the run would have written one."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--checkpoint-every", "4"],
            ["serve", "--resume-from", "missing.ckpt",
             "--checkpoint-every", "4"],
            ["obs"],
            ["health"],
        ],
        ids=" ".join,
    )
    def test_missing_input_is_a_usage_error(self, argv, capsys):
        """One usage line on stderr, exit 2, before anything is built or
        restored (the resumed checkpoint does not exist)."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {argv[0]}: error: ")
        assert captured.out == ""


class TestTopologyCommand:
    def test_builds_and_saves(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        code = main(
            [
                "topology",
                "--pods", "2", "--tors", "3", "--aggs", "2", "--spines", "4",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["links"]) == 2 * 3 * 2 + 2 * 2 * 2
        assert "built" in capsys.readouterr().out

    def test_fattree(self, capsys):
        assert main(["topology", "--kind", "fattree", "--k", "4"]) == 0
        assert "32 links" in capsys.readouterr().out


class TestStudyCommand:
    def test_prints_statistics(self, capsys):
        code = main(
            ["study", "--dcns", "2", "--days", "2", "--scale", "0.15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corruption buckets" in out
        assert "bidirectional" in out


class TestSimulateCommand:
    def test_corropt_run(self, capsys):
        code = main(
            [
                "simulate", "--dcn", "medium", "--scale", "0.15",
                "--days", "10", "--events", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "penalty integral" in out
        assert "worst ToR path fraction" in out

    def test_switch_local_run(self, capsys):
        code = main(
            [
                "simulate", "--strategy", "switch-local", "--scale", "0.15",
                "--days", "10",
            ]
        )
        assert code == 0
        assert "switch-local" in capsys.readouterr().out


class TestRecommendCommand:
    def test_contamination_signature(self, capsys):
        code = main(
            [
                "recommend", "--rx1", "-16", "--rx2", "-3",
                "--tx1", "1", "--tx2", "1", "--tech", "40G-LR4",
            ]
        )
        assert code == 0
        assert "clean fiber" in capsys.readouterr().out

    def test_shared_component_signature(self, capsys):
        code = main(
            [
                "recommend", "--rx1", "-3", "--rx2", "-3",
                "--tx1", "1", "--tx2", "1", "--neighbor-corrupting",
            ]
        )
        assert code == 0
        assert "shared component" in capsys.readouterr().out

    def test_deployed_engine_ignores_neighbors(self, capsys):
        code = main(
            [
                "recommend", "--rx1", "-3", "--rx2", "-3",
                "--tx1", "1", "--tx2", "1", "--neighbor-corrupting",
                "--deployed",
            ]
        )
        assert code == 0
        assert "reseat" in capsys.readouterr().out


class TestGadgetCommand:
    def test_equivalence_reported(self, capsys):
        code = main(["gadget", "--vars", "3", "--clauses", "5", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence holds: True" in out
