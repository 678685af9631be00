"""CLI tests.

``main`` is a thin shell over :mod:`repro.api`; these tests cover both
the shell (argv handling, exit codes, printed output) and the facade
itself (``run_study``/``run_one``/``list_experiments``).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table2" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig11", "--scale", "0.0005"]) == 0
        out = capsys.readouterr().out
        assert "Bloom" in out
        assert "paper vs measured" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultFlags:
    def test_run_with_fault_profile(self, capsys):
        assert (
            main(
                [
                    "run",
                    "availability",
                    "--fault-profile",
                    "chaos",
                    "--fault-seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profile=chaos" in out
        assert "fault seed 7" in out

    def test_fault_flags_before_subcommand(self, capsys):
        assert (
            main(
                ["--fault-profile", "flaky", "--fault-seed", "7", "run", "availability"]
            )
            == 0
        )
        assert "profile=flaky" in capsys.readouterr().out

    def test_bare_fault_flags_run_all_with_run_defaults(self, monkeypatch):
        """`python -m repro --fault-profile P` is `run all` with every
        other flag at the `run` subcommand's default."""
        calls = []

        def fake_run_study(**kwargs):
            calls.append(kwargs)
            return api.study.StudyRun(study=None, results=[])

        monkeypatch.setattr(api.study, "run_study", fake_run_study)
        flags = ["--fault-profile", "chaos", "--fault-seed", "20150701"]
        assert main(flags) == 0
        assert main([*flags, "run", "all"]) == 0
        assert len(calls) == 2
        assert calls[0] == calls[1]
        assert calls[0]["experiment"] == "all"
        assert calls[0]["fault_profile"] == "chaos"
        assert calls[0]["fault_seed"] == 20150701

    def test_unknown_profile_fails(self, capsys):
        assert main(["run", "availability", "--fault-profile", "mayhem"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_same_fault_seed_identical_output(self, capsys):
        main(["run", "availability", "--fault-profile", "chaos", "--fault-seed", "7"])
        first = capsys.readouterr().out
        main(["run", "availability", "--fault-profile", "chaos", "--fault-seed", "7"])
        assert capsys.readouterr().out == first


class TestApiFacade:
    """The stable surface the CLI is a shell over."""

    def test_list_experiments_matches_cli(self, capsys):
        experiments = api.study.list_experiments()
        assert "fig2" in experiments and "table2" in experiments
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id, title in experiments.items():
            assert experiment_id in out and title in out

    def test_run_one_returns_result(self):
        result = api.study.run_one("fig11", scale=0.0005)
        assert result.ok
        assert result.experiment_id == "fig11"
        assert "Bloom" in result.render()

    def test_run_study_unknown_raises_key_error(self):
        with pytest.raises(KeyError):
            api.study.run_study(experiment="fig99", scale=0.0005)

    def test_run_study_ok_rollup(self):
        run = api.study.run_study(experiment="fig11", scale=0.0005)
        assert run.ok
        assert run.crashes == 0 and run.shape_failures == 0
        assert [r.experiment_id for r in run.results] == ["fig11"]

    def test_all_exports_exist(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
