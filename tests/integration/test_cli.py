"""Integration tests for the command-line interface."""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"

RACY = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print d.x;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { this.d.x = this.d.x + 1; }
}
"""

SAFE = RACY.replace(
    "def run() { this.d.x = this.d.x + 1; }",
    "def run() { sync (this.d) { this.d.x = this.d.x + 1; } }",
)

#: A program whose main thread starts a worker that writes ``m.x``,
#: writes ``m.x`` itself, and then fails at FAILURE.
FAILS_AFTER_WRITES = """
class Main {
  field x;
  static def main() {
    var m = new Main();
    var w = new W(m); start w;
    m.x = 1;
    FAILURE
  }
  static def down(n) { return 1 + Main.down(n); }
}
class W { field m; def init(m) { this.m = m; } def run() { this.m.x = 2; } }
"""


def phase_rows(out) -> list:
    """The stage names ``--phase-times`` printed, in order; each row
    carries non-negative seconds."""
    lines = out.splitlines()
    start = next(
        index for index, line in enumerate(lines)
        if line.startswith("phase times (wall ")
    )
    stages = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        stage, seconds, _ = line.split()
        assert float(seconds.rstrip("s")) >= 0.0
        stages.append(stage)
    return stages


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.mj"
    path.write_text(RACY)
    return path


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.mj"
    path.write_text(SAFE)
    return path


class TestCheck:
    def test_racy_exits_nonzero_and_reports(self, racy_file, capsys):
        code = main(["check", str(racy_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE" in out
        assert "[program] 2" in out

    def test_safe_exits_zero(self, safe_file, capsys):
        code = main(["check", str(safe_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no dataraces detected" in out

    def test_stats_flag(self, racy_file, capsys):
        main(["check", str(racy_file), "--stats"])
        out = capsys.readouterr().out
        assert "funnel:" in out
        assert "instrumented sites:" in out

    def test_seed_flag(self, racy_file, capsys):
        code = main(["check", str(racy_file), "--seed", "3"])
        assert code == 1

    def test_config_toggles(self, safe_file, capsys):
        code = main(
            [
                "check",
                str(safe_file),
                "--no-static",
                "--no-weaker",
                "--no-peeling",
                "--no-cache",
                "--no-ownership",
            ]
        )
        out = capsys.readouterr().out
        # Without ownership, the init-then-share write is reported.
        assert code == 1
        assert "DATARACE" in out

    def test_fields_merged_flag(self, safe_file, capsys):
        code = main(["check", str(safe_file), "--fields-merged"])
        assert code in (0, 1)

    def test_deadlocks_flag_is_unknown(self, safe_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(safe_file), "--deadlocks"])
        assert excinfo.value.code == 2
        assert "--deadlocks" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "ghost.mj")])
        assert code == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mj"
        path.write_text("class {")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("engine", ["ast", "compiled"])
    def test_engine_flag_same_verdict(self, racy_file, engine, capsys):
        code = main(["check", str(racy_file), "--engine", engine])
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE" in out
        assert "[program] 2" in out

    def test_unknown_engine_rejected(self, racy_file, capsys):
        with pytest.raises(SystemExit):
            main(["check", str(racy_file), "--engine", "jit"])

    @pytest.mark.parametrize("engine", ["ast", "compiled"])
    def test_phase_times_flag(self, racy_file, engine, capsys):
        code = main(
            ["check", str(racy_file), "--phase-times", "--engine", engine]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE" in out
        assert phase_rows(out) == ["load", "run"]

    @pytest.mark.parametrize(
        "flags, stages",
        [
            (["--post-mortem"], ["load", "run", "detect"]),
            (["--shards", "2"], ["load", "run", "detect"]),
            (["--from-log"], ["load", "detect"]),
            (["--predict", "shb"], ["load", "run", "detect", "axes"]),
        ],
        ids=["post-mortem", "shards-2", "from-log-v1", "predict-shb"],
    )
    def test_phase_times_on_every_check_path(
        self, racy_file, tmp_path, flags, stages, capsys
    ):
        target = [str(racy_file)]
        if flags[0] == "--from-log":
            log = tmp_path / "racy.mjbl"
            assert main(["run", str(racy_file), "--record-binary", str(log)]) == 0
            target, flags = [], ["--from-log", str(log)]
        capsys.readouterr()
        code = main(["check", *target, *flags, "--phase-times"])
        out = capsys.readouterr().out
        assert code == 1
        assert phase_rows(out) == stages

    def test_phase_times_rejects_report_json(self, racy_file, capsys):
        code = main(
            ["check", str(racy_file), "--phase-times", "--report-json"]
        )
        assert code == 2
        assert "--report-json" in capsys.readouterr().err


class TestRunAndExplain:
    def test_run_prints_output(self, racy_file, capsys):
        code = main(["run", str(racy_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "2"

    def test_record_binary_finalizes_a_failed_run(self, tmp_path, capsys):
        """A run that raises (bank_transfer deadlocks at seed 1) still
        leaves a valid MJBL log of the events recorded before the
        failure, byte-identical on both engines."""
        from repro.runtime import ENGINES, open_log

        digests = set()
        for engine in sorted(ENGINES):
            log = tmp_path / f"{engine}.mjbl"
            code = main(["run", str(PROGRAMS / "bank_transfer.mj"),
                         "--seed", "1", "--engine", engine,
                         "--record-binary", str(log)])
            assert code == 2
            with open_log(log) as reader:
                assert reader.record_count > 0
            digests.add(hashlib.sha256(log.read_bytes()).hexdigest())
        assert "deadlock" in capsys.readouterr().err
        assert len(digests) == 1

    @pytest.mark.parametrize(
        "failure, message",
        [
            ("var a = newarray(2); a[m.x + 5] = 3;", "out of bounds"),
            ("var z = null; z.x = 3;", "null dereference"),
            ("assert m.x == 7;", "assertion failed"),
            ("print Main.down(1);", "call depth exceeds"),
        ],
        ids=["out-of-bounds", "null", "assert", "call-depth"],
    )
    def test_record_binary_finalizes_each_runtime_failure(
        self, tmp_path, capsys, failure, message
    ):
        """A worker's write and main's are recorded before main fails:
        the log holds them, is byte-identical on both engines, and
        ``check --from-log`` reads it."""
        from repro.runtime import ENGINES, open_log

        program = tmp_path / "fails.mj"
        program.write_text(FAILS_AFTER_WRITES.replace("FAILURE", failure))
        digests = set()
        for engine in sorted(ENGINES):
            log = tmp_path / f"{engine}.mjbl"
            code = main(["run", str(program), "--seed", "3",
                         "--engine", engine, "--record-binary", str(log)])
            assert code == 2
            assert message in capsys.readouterr().err
            with open_log(log) as reader:
                assert reader.record_count > 0
            digests.add(hashlib.sha256(log.read_bytes()).hexdigest())
            assert main(["check", "--from-log", str(log)]) in (0, 1)
            capsys.readouterr()
        assert len(digests) == 1

    def test_explain_lists_static_decisions(self, racy_file, capsys):
        code = main(["explain", str(racy_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "static datarace set" in out
        assert "instrumented sites:" in out
        assert "Worker.run" in out
