"""The shipped example MJ programs behave as their headers claim."""

from pathlib import Path

import pytest

from repro.cli import main

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"


class TestBankTransfer:
    def test_no_races(self, capsys):
        code = main(["check", str(PROGRAMS / "bank_transfer.mj")])
        out = capsys.readouterr().out
        assert code == 0
        assert "no dataraces detected" in out

    def test_money_conserved(self, capsys):
        main(["run", str(PROGRAMS / "bank_transfer.mj")])
        out = capsys.readouterr().out
        checking = int(out.split("checking=")[1].splitlines()[0])
        savings = int(out.split("savings=")[1].splitlines()[0])
        assert checking + savings == 150


class TestRacyCounter:
    def test_race_reported_with_static_candidates(self, capsys):
        code = main(["check", str(PROGRAMS / "racy_counter.mj")])
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE on Counter" in out
        assert "static candidates:" in out

    def test_race_stable_across_seeds(self, capsys):
        for seed in range(4):
            code = main(
                ["check", str(PROGRAMS / "racy_counter.mj"),
                 "--seed", str(seed)]
            )
            capsys.readouterr()
            assert code == 1, f"seed {seed}"


class TestProducerConsumer:
    def test_clean_under_seeds(self, capsys):
        for seed in (None, 1, 2, 3):
            argv = ["check", str(PROGRAMS / "producer_consumer.mj")]
            if seed is not None:
                argv += ["--seed", str(seed)]
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, f"seed {seed}"
            assert "consumed=78" in out
