"""The command line contract of perfbench/run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_last_line_is_the_result_object():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        p = _run(ROOT, "--workload", "grid_field", "--seed", "2", "--seconds", "1", "--trace", trace)
        assert p.returncode == 0, p.stderr
        out = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in bench[key]} == {
            k: v["unit"] for k, v in out["metrics"].items()
        }


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    p = _run(tmp_path, "--workload", "grid_field", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "metrics" not in p.stdout
