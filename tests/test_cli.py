"""CLI tests: python -m repro run / optimize / datasets."""

import re

import pytest

from repro.__main__ import _parse_input_spec, main
from repro.matrix import MatrixMeta


GD_SCRIPT = """
input A, b, x, alpha
i = 0
while (i < 20) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""


@pytest.fixture
def script_path(tmp_path):
    path = tmp_path / "gd.dml"
    path.write_text(GD_SCRIPT)
    return str(path)


class TestInputSpec:
    def test_full_spec(self):
        name, meta = _parse_input_spec("A:100x50:0.25")
        assert name == "A"
        assert meta == MatrixMeta(100, 50, 0.25)

    def test_default_dense(self):
        _name, meta = _parse_input_spec("x:50x1")
        assert meta.sparsity == 1.0

    def test_bad_specs_rejected(self):
        import argparse
        for bad in ("A", "A:10", "A:axb", "A:10x5:zz"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_input_spec(bad)


class TestCommands:
    def test_run_command(self, capsys):
        code = main(["run", "--engine", "systemds*", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution" in out
        assert "gd on cri1" in out

    def test_run_repeat_hits_the_plan_cache(self, capsys):
        code = main(["run", "--engine", "remac", "--algorithm", "dfp",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05", "--repeat", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^run 2/2: .*\(plan cache hit\)$", out, re.M), out

    def test_run_single_node(self, capsys):
        code = main(["run", "--engine", "systemds*", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "2",
                     "--scale", "0.05", "--single-node"])
        assert code == 0
        assert "transmission" not in capsys.readouterr().out

    def test_optimize_command(self, capsys, script_path):
        code = main(["optimize", script_path, "--scalar", "i",
                     "--scalar", "alpha",
                     "--input", "A:20000x100:0.05",
                     "--input", "b:20000x1", "--input", "x:100x1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LSE" in out
        assert "tREMAC" in out
        assert "while" in out

    def test_optimize_missing_input_metadata(self, capsys, script_path):
        code = main(["optimize", script_path, "--scalar", "i",
                     "--scalar", "alpha", "--input", "A:100x10"])
        assert code == 2
        assert "no metadata" in capsys.readouterr().err

    def test_datasets_command(self, capsys):
        code = main(["datasets"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("cri1", "red3", "zipf-2.8"):
            assert name in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestTraceFlag:
    def test_run_with_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code = main(["run", "--engine", "remac", "--algorithm", "dfp",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05", "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out
        assert "drift" in out
        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        assert spans
        operators = [span for span in spans if span["span"] == "operator"]
        assert operators
        assert any(span["predicted"] is not None for span in operators)

    def test_run_without_trace_prints_no_drift(self, capsys):
        code = main(["run", "--engine", "remac", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "2",
                     "--scale", "0.05"])
        assert code == 0
        assert "drift" not in capsys.readouterr().out


class TestFaultFlags:
    def test_run_with_fault_seed(self, capsys):
        code = main(["run", "--engine", "remac", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05", "--fault-seed", "17",
                     "--max-retries", "100", "--checkpoint-every", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "recovery" in out

    def test_run_with_fault_plan_file(self, capsys, tmp_path):
        from repro.cluster.faults import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan.from_seed(3, horizon=0.01).dump(str(path))
        code = main(["run", "--engine", "remac", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05", "--fault-plan", str(path),
                     "--max-retries", "100"])
        assert code == 0
        assert "faults" in capsys.readouterr().out

    def test_run_with_replan_on_shrink(self, capsys):
        code = main(["run", "--engine", "remac", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "3",
                     "--scale", "0.05", "--fault-seed", "17",
                     "--max-retries", "100", "--replan-on-shrink"])
        assert code == 0
        assert "replanning" in capsys.readouterr().out
        # Shrink is the only replan trigger the CLI arms.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--algorithm", "gd", "--dataset", "cri1",
                  "--replan-drift-threshold", "0.25"])
        assert excinfo.value.code == 2

    def test_run_without_fault_flags_prints_no_fault_line(self, capsys):
        code = main(["run", "--engine", "remac", "--algorithm", "gd",
                     "--dataset", "cri1", "--iterations", "2",
                     "--scale", "0.05"])
        assert code == 0
        assert "faults" not in capsys.readouterr().out


class TestTypedErrors:
    @pytest.mark.parametrize("argv, text, message", [
        (["optimize", "{path}", "--input", "A:10x5", "--input", "B:7x3"],
         "C = A %*% B\n", "matmul shape mismatch: 10x5 @ 7x3"),
        (["run", "--algorithm", "gd", "--dataset", "cri1", "--iterations",
          "2", "--scale", "0.05", "--fault-plan", "{path}"],
         '{"crashes": [{"time": "soon"}]}', "fault plan '{path}': malformed "
         "fault plan: could not convert string to float: 'soon'")],
        ids=["shape-mismatch", "malformed-fault-plan"])
    def test_a_typed_error_is_its_message_and_exit_1(self, capsys, tmp_path,
                                                      argv, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        code = main([arg.format(path=path) for arg in argv])
        assert (code, capsys.readouterr().err) \
            == (1, f"error: {message.format(path=path)}\n")  # no traceback

    @pytest.mark.parametrize("argv", [
        ["optimize", "{path}"],
        ["run", "--algorithm", "gd", "--dataset", "cri1", "--iterations",
         "2", "--scale", "0.05", "--fault-plan", "{path}"]],
        ids=["script", "fault-plan"])
    def test_a_file_that_cannot_be_opened_is_an_error_line(self, capsys,
                                                           tmp_path, argv):
        path = tmp_path / "missing"
        code = main([arg.format(path=path) for arg in argv])
        err = capsys.readouterr().err
        assert (code, err) == (
            1, f"error: [Errno 2] No such file or directory: '{path}'\n")
        assert "Traceback" not in err
