import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_record(monkeypatch):
    module = _load(ROOT / "scripts" / "bench_record.py")
    monkeypatch.setattr(module, "_git", lambda *args: "abc123" if args[0] == "rev-parse" else "")
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

    @pytest.mark.parametrize("edited, dirty", [
        ([], False),
        (["BENCH_7.json"], False),
        (["scripts/bench_record.py"], True),
        (["BENCH_7.json", "BENCHMARK.json"], True),
    ])
    def test_dirty_leaves_out_the_record_being_written(self, edited, dirty, tmp_path, capsys):
        # a committed checkout holding an earlier BENCH_7.json, recorded again
        root = tmp_path.resolve()
        (root / "scripts").mkdir()
        for name in ("BENCHMARK.json", "scripts/bench_record.py"):
            shutil.copy(ROOT / name, root / name)
        (root / "BENCH_7.json").write_text("{}\n")
        git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@example.com",
               "-c", "commit.gpgsign=false"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "record"]):
            subprocess.run([*git, *args], check=True, capture_output=True)
        for name in edited:
            with open(root / name, "a", encoding="utf-8") as f:
                f.write("\n")
        module = _load(root / "scripts" / "bench_record.py")
        code, record, _ = self.run(module, {}, root, capsys)
        assert code == 0
        assert record["dirty"] is dirty
