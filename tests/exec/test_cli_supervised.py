"""CLI surface of the execution layer: flags, exit codes, verify."""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main

SCALE_ARGS = ["--scale", "0.0005", "--seed", "3"]


class TestFlagValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--resume"],
            ["--checkpoint-dir", "ckpt"],
            ["--exec-fault-profile", "kill-worker"],
            ["--exec-fault-seed", "1"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_resume_rejected_for_single_experiment(
        self, flags, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig2", *flags]) == 2
        assert "all" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["run", "all"], ["corpus", "build", "d"]])
    def test_resume_needs_a_checkpoint_dir(
        self, command, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_exec_fault_profile(self, capsys):
        assert main(["run", "all", "--exec-fault-profile", "bogus"]) == 2
        assert "exec fault profile" in capsys.readouterr().err

    def test_unknown_exec_fault_profile_on_corpus_build(self, capsys, tmp_path):
        assert (
            main(
                [
                    "corpus",
                    "build",
                    str(tmp_path),
                    "--exec-fault-profile",
                    "bogus",
                ]
            )
            == 2
        )
        assert "exec fault profile" in capsys.readouterr().err


class TestCorpusVerifyCommand:
    @pytest.fixture()
    def store(self, tmp_path, capsys):
        assert (
            main(["corpus", "build", str(tmp_path), *SCALE_ARGS]) == 0
        )
        out = capsys.readouterr().out
        return next(tmp_path.glob("corpus-*.sqlite"))

    def test_verify_sound_store(self, store, capsys):
        assert main(["corpus", "verify", str(store)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corrupt_store_exits_1(self, store, capsys):
        with open(store, "r+b") as handle:
            handle.truncate(store.stat().st_size // 2)
        assert main(["corpus", "verify", str(store)]) == 1
        assert "unreadable" in capsys.readouterr().out

    def test_verify_quarantine_moves_store(self, store, capsys):
        with open(store, "r+b") as handle:
            handle.truncate(store.stat().st_size // 2)
        assert main(["corpus", "verify", str(store), "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert "quarantined ->" in out
        assert not store.exists()
        assert store.with_name(store.name + ".quarantined").exists()


class TestSupervisedCorpusBuild:
    def test_interrupt_resume_reproduces_the_plain_digest(
        self, tmp_path, capsys
    ):
        plain_dir, chaos_dir = tmp_path / "plain", tmp_path / "chaos"
        assert (
            main(["corpus", "build", str(plain_dir), *SCALE_ARGS]) == 0
        )
        plain_digest = re.search(
            r"corpus_digest\s+(\S+)", capsys.readouterr().out
        )
        assert plain_digest is not None

        chaos_args = [
            "corpus",
            "build",
            str(chaos_dir),
            *SCALE_ARGS,
            "--shards",
            "6",
            "--workers",
            "2",
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            "--exec-fault-profile",
            "chaos-proc",
            "--exec-fault-seed",
            "1",
        ]
        assert main(chaos_args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""  # interruption goes to stderr only
        assert "--resume" in captured.err

        assert main(chaos_args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert plain_digest.group(1) in resumed_out


class TestFaultPlanOnEveryPath:
    """An exec fault plan applies to every run, journal or not."""

    def test_serial_run_all_aborts_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        args = ["run", "all", *SCALE_ARGS, "--exec-fault-profile", "kill-worker"]
        assert main([*args, "--exec-fault-seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "interrupted" in captured.err
        assert "--checkpoint-dir" in captured.err  # nothing to resume from
        assert list(tmp_path.iterdir()) == []  # no journal was asked for

    def test_corpus_build_across_workers_aborts(self, capsys, tmp_path):
        args = [
            "corpus",
            "build",
            str(tmp_path / "store"),
            *SCALE_ARGS,
            "--shards",
            "6",
            "--workers",
            "2",
            "--exec-fault-profile",
            "chaos-proc",
            "--exec-fault-seed",
            "1",
        ]
        assert main(args) == 3
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.glob("store/corpus-*.sqlite"))
