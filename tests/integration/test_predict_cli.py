"""End-to-end CLI tests for the predictive axis.

``repro check --predict {shb,hybrid}`` (live and over recorded logs of
both formats) and the ``repro difflab --predict`` hunt that shrinks
predictive finds into reproducers with witness schedules.
"""

import json

import pytest

from repro.cli import main

#: The §2.2 predictive shape: Worker0 publishes under lock0 *after* an
#: unlocked write; Worker1 syncs on lock0 (without reading the guarded
#: field) and then touches x unlocked.  Under round-robin Worker0's
#: critical section completes before Worker1's, so plain HB orders the
#: x accesses through the release→acquire edge — observed races: none.
#: SHB drops that edge (no write-read communication couples the
#: threads) and predicts the x race.
PREDICTIVE = """
class Main {
  static def main() {
    var s = new S();
    var l = new LockObj();
    var w0 = new W0(s, l);
    var w1 = new W1(s, l);
    start w0;
    start w1;
    join w0;
    join w1;
  }
}
class S { field x; field y; }
class LockObj { }
class W0 {
  field s; field l;
  def init(a, b) { this.s = a; this.l = b; }
  def run() {
    this.s.x = 1;
    sync (this.l) { this.s.y = 1; }
  }
}
class W1 {
  field s; field l;
  def init(a, b) { this.s = a; this.l = b; }
  def run() {
    sync (this.l) { this.s.y = 2; }
    this.s.x = 2;
  }
}
"""

SAFE = """
class Main {
  static def main() {
    var s = new S();
    var w = new W(s);
    start w;
    join w;
    var r = s.x;
  }
}
class S { field x; }
class W {
  field s;
  def init(a) { this.s = a; }
  def run() { this.s.x = 1; }
}
"""


@pytest.fixture
def predictive_file(tmp_path):
    path = tmp_path / "predictive.mj"
    path.write_text(PREDICTIVE)
    return path


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.mj"
    path.write_text(SAFE)
    return path


class TestCheckPredict:
    def test_predict_flags_unobserved_race(self, predictive_file, capsys):
        exit_code = main(["check", str(predictive_file), "--predict", "shb"])
        out = capsys.readouterr().out
        # The paper detector reports the lockset race; prediction
        # additionally explains it is real in a reordering but not in
        # this interleaving.
        assert "[shb] predicted race on #1.x" in out
        assert "predicted only — not observed in this interleaving" in out
        assert exit_code == 1

    def test_hybrid_refutes_lock_protected_fp(self, predictive_file, capsys):
        exit_code = main(
            ["check", str(predictive_file), "--predict", "hybrid"]
        )
        out = capsys.readouterr().out
        # Pure SHB also predicts y (same-lock critical sections); the
        # hybrid's lockset conjunct refutes that one.
        assert "[hybrid] predicted race on #1.x" in out
        assert "#1.y" not in out
        assert exit_code == 1

    def test_safe_program_predicts_nothing(self, safe_file, capsys):
        exit_code = main(["check", str(safe_file), "--predict", "hybrid"])
        out = capsys.readouterr().out
        assert "no dataraces detected" in out
        assert "no races predicted in reorderings" in out
        assert exit_code == 0

    def test_predict_exit_code_without_observed_reports(
        self, predictive_file, capsys
    ):
        """Prediction alone forces a nonzero exit even when the
        on-the-fly battery would have been silent: detection-off run
        first to confirm the shape, then predict."""
        # Plain HB-style observation: the paper detector *does* report
        # this lockset race, so exercise the predicted-only exit path
        # through a no-report program instead: a run whose only finding
        # is predictive cannot exist for the paper detector (hybrid ⊆
        # reference-raw ⊆ paper-without-ownership), so assert the
        # composite condition: reports or predictions → exit 1.
        assert main(["check", str(predictive_file), "--predict", "shb"]) == 1
        capsys.readouterr()

    def test_predict_from_recorded_log(
        self, predictive_file, tmp_path, capsys
    ):
        log_path = tmp_path / "log.mjbl"
        assert main(
            ["run", str(predictive_file), "--record-binary", str(log_path)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["check", str(predictive_file), "--from-log", str(log_path),
             "--predict", "hybrid"]
        )
        out = capsys.readouterr().out
        assert "[hybrid] predicted race on #1.x" in out
        assert exit_code == 1

    def test_unfinalized_binary_log_errors_cleanly(
        self, predictive_file, tmp_path, capsys
    ):
        from repro.runtime import BinaryLogSink

        crashed = tmp_path / "crashed.mjbl"
        sink = BinaryLogSink(crashed)
        sink._file.flush()
        sink._file = None  # crash before close(): provisional header
        exit_code = main(
            ["check", str(predictive_file), "--from-log", str(crashed),
             "--predict", "shb"]
        )
        err = capsys.readouterr().err
        assert exit_code == 3  # corrupt-log exit, distinct from front-end errors
        assert "never finalized" in err
        assert "byte offset 12" in err


class TestDifflabPredictHunt:
    def test_hunt_writes_find_with_witness(self, tmp_path, capsys):
        out_dir = tmp_path / "finds"
        exit_code = main([
            "difflab", "--skip-corpus", "--programs", "12",
            "--schedules", "2", "--predict", "hybrid",
            "--out", str(out_dir),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        finds = sorted(out_dir.glob("find-*.json"))
        assert finds, out
        classes = set()
        for path in finds:
            payload = json.loads(path.read_text())
            classes.add(payload["class"])
            assert path.with_suffix(".mj").exists()
            assert payload["items"]
            if payload["class"] == "predicted-not-observed":
                assert payload["witness"] is not None
                witness = payload["witness"]
                assert witness["location"] in payload["items"]
                from repro.detector import Witness, replay_witness

                assert replay_witness(
                    path.with_suffix(".mj").read_text(),
                    Witness.from_json(witness),
                )
        assert "lockset-fp-refuted" in classes
        assert "FIND" in out
