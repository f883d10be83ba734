import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_record(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_git", lambda *args: "" if args[0] == "status" else "abc123")
    return module


class TestBenchRecord:
    def run(self, module, results, tmp_path, capsys):
        calls = []

        def run_workload(name, seconds):
            calls.append((name, seconds))
            return results.get(name, {"correct": True, "failed": 0, "metrics": {}})

        module.run_workload = run_workload
        out = tmp_path / "BENCH_7.json"
        code = module.main(["7", "--seconds", "2", "--output", str(out)])
        capsys.readouterr()
        return code, json.loads(out.read_text()), calls

    def test_records_every_workload(self, bench_record, tmp_path, capsys):
        code, record, calls = self.run(bench_record, {}, tmp_path, capsys)
        names = ["s3-decide", "fg2-deep", "gcsg-member", "trace-canonical"]
        assert code == 0
        assert calls == [(name, 2.0) for name in names]
        assert list(record["workloads"]) == names
        assert {k: record[k] for k in ("pr", "commit", "dirty", "seed", "seconds")} == {
            "pr": "7", "commit": "abc123", "dirty": False, "seed": 1, "seconds": 2.0}

    @pytest.mark.parametrize("result", [{"correct": False, "failed": 0},
                                        {"correct": True, "failed": 1}])
    def test_fails_unless_every_workload_is_correct(self, bench_record, result, tmp_path, capsys):
        code, record, _ = self.run(bench_record, {"gcsg-member": result}, tmp_path, capsys)
        assert code == 1
        assert record["workloads"]["gcsg-member"] == result
