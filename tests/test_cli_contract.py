"""CLI contract tests: exit codes, flag precedence, and report parity.

The contract (ISSUE 5): exit 0 on success, 1 on behavioural failures
(crashed experiments, failed shape comparisons, non-empty ``--check``
diffs), 2 on usage and input errors; fault flags given after the
subcommand win over ones given before it (a parser property, not merge
code); and the ``report`` subcommand is byte-equal to
``repro.api.study.render_report`` / the ``reportgen`` module CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.__main__ import main
from repro.experiments import reportgen

RUN_AVAIL = ["run", "availability", "--scale", "0.0005", "--seed", "3"]


class TestExitCodes:
    def test_list_is_0(self, capsys):
        assert main(["list"]) == 0
        assert "availability" in capsys.readouterr().out

    def test_unknown_experiment_is_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_profile_is_2_for_run_and_report(self, capsys):
        assert main(RUN_AVAIL + ["--fault-profile", "mayhem"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err
        assert main(["report", "--fault-profile", "mayhem"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("scale", ["0", "-1", "1.5", "nan"])
    @pytest.mark.parametrize(
        "command",
        [["run", "fig2"], ["report"], ["serve-bench"], ["corpus", "build", "store"]],
        ids=" ".join,
    )
    def test_out_of_range_scale_is_usage_error(self, command, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--scale", scale])
        assert excinfo.value.code == 2
        assert "scale must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1", "1.5", "nan"])
    def test_reportgen_out_of_range_scale_is_2(self, scale, capsys):
        assert reportgen.main([scale]) == 2
        _, err = capsys.readouterr()
        assert err.count("\n") == 1 and "scale must be in (0, 1]" in err

    def test_trace_missing_file_is_2(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "trace.jsonl" in capsys.readouterr().err

    def test_trace_requires_file_or_diff(self, capsys):
        assert main(["trace"]) == 2
        assert "required" in capsys.readouterr().err

    def test_trace_rejects_file_and_diff_together(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n')
        assert main(["trace", str(path), "--diff", str(path), str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_check_requires_diff(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n')
        assert main(["trace", str(path), "--check"]) == 2
        assert "--check requires --diff" in capsys.readouterr().err

    def test_check_nonempty_diff_is_1(self, tmp_path, capsys):
        # Two tiny hand-written traces that differ by one span: --check
        # must exit 1 without needing a full study run.
        span = {
            "type": "span",
            "id": 0,
            "parent": None,
            "name": "experiment",
            "start": 0,
            "end": 1,
            "attrs": {"experiment": "x"},
        }
        extra = {
            "type": "span",
            "id": 1,
            "parent": None,
            "name": "experiment",
            "start": 2,
            "end": 3,
            "attrs": {"experiment": "y"},
        }
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(json.dumps(span) + "\n")
        b.write_text(json.dumps(span) + "\n" + json.dumps(extra) + "\n")
        assert main(["trace", "--diff", str(a), str(b), "--check"]) == 1
        out = capsys.readouterr().out
        assert "experiment[experiment=y]" in out
        # Without --check a non-empty diff still exits 0 (informational).
        assert main(["trace", "--diff", str(a), str(b)]) == 0


class TestCorpusSubcommand:
    """`repro corpus build|inspect|stat` wired through repro.api."""

    SCALE = "0.0005"

    def test_build_then_stat_then_inspect(self, tmp_path, capsys):
        directory = str(tmp_path)
        assert main(["corpus", "build", directory, "--scale", self.SCALE]) == 0
        out = capsys.readouterr().out
        assert "rebuilt        True" in out
        assert "corpus_digest" in out

        assert main(["corpus", "stat", directory]) == 0
        stat_out = capsys.readouterr().out
        assert f"scale {self.SCALE}" in stat_out

        store = next(tmp_path.glob("corpus-*.sqlite"))
        assert main(["corpus", "inspect", str(store)]) == 0
        assert str(store) in capsys.readouterr().out

    def test_rebuild_is_skipped_when_store_exists(self, tmp_path, capsys):
        directory = str(tmp_path)
        assert main(["corpus", "build", directory, "--scale", self.SCALE]) == 0
        capsys.readouterr()
        assert (
            main(
                ["corpus", "build", directory, "--scale", self.SCALE,
                 "--shards", "4"]
            )
            == 0
        )
        assert "rebuilt        False" in capsys.readouterr().out

    def test_inspect_unreadable_store_is_2(self, tmp_path, capsys):
        bogus = tmp_path / "corpus-bogus.sqlite"
        bogus.write_bytes(b"garbage")
        assert main(["corpus", "inspect", str(bogus)]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_stat_empty_directory_is_0(self, tmp_path, capsys):
        assert main(["corpus", "stat", str(tmp_path)]) == 0
        assert "no corpus stores" in capsys.readouterr().out

    def test_corpus_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus"])
        assert excinfo.value.code == 2


class TestFlagPrecedence:
    """After-subcommand flags win; singly-given flags apply anywhere."""

    def _profile_rows(self, out: str) -> int:
        return out.count("profile=")

    def test_after_subcommand_wins_over_before(self, capsys):
        assert (
            main(
                ["--fault-profile", "flaky"]
                + RUN_AVAIL
                + ["--fault-profile", "none"]
            )
            == 0
        )
        assert self._profile_rows(capsys.readouterr().out) == 0

    def test_after_subcommand_wins_reversed(self, capsys):
        assert (
            main(
                ["--fault-profile", "none"]
                + RUN_AVAIL
                + ["--fault-profile", "flaky"]
            )
            == 0
        )
        assert "profile=flaky" in capsys.readouterr().out

    def test_before_subcommand_applies_when_not_repeated(self, capsys):
        assert main(["--fault-profile", "flaky"] + RUN_AVAIL) == 0
        assert "profile=flaky" in capsys.readouterr().out

    def test_fault_seed_precedence(self, capsys):
        assert (
            main(
                ["--fault-seed", "1"]
                + RUN_AVAIL[:2]
                + ["--scale", "0.0005", "--fault-profile", "chaos", "--fault-seed", "7"]
            )
            == 0
        )
        assert "fault seed 7" in capsys.readouterr().out


class TestReportParity:
    """`repro report` == api.study.render_report == the reportgen module CLI."""

    SCALE = 0.0005

    @pytest.fixture(scope="class")
    def generated(self):
        return api.study.render_report(self.SCALE)

    def test_report_subcommand_matches_facade(self, generated, capsys):
        assert main(["report", "--scale", str(self.SCALE)]) == 0
        assert capsys.readouterr().out == generated

    def test_reportgen_module_cli_matches_facade(self, generated, capsys):
        assert reportgen.main([str(self.SCALE)]) == 0
        assert capsys.readouterr().out == generated

    def test_report_gains_fault_profile_parity_with_run(self, capsys):
        assert (
            main(
                [
                    "report",
                    "--scale",
                    str(self.SCALE),
                    "--fault-profile",
                    "flaky",
                    "--fault-seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profile=flaky" in out
        assert "fault seed 7" in out
