"""Smoke test of the benchmark at tiny sizes (about a minute).

Runs every workload at ``--scale tiny`` and the default seed, untraced
and traced, and asserts that the result line is well formed, the run is
correct (which includes the frozen output digest), and every metric
``BENCHMARK.json`` names is emitted with its unit.  Then it checks that
the benchmark refuses to run, printing nothing, in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in wanted}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected, (
        f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
        f"missing {sorted(set(expected) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(expected))}, "
        f"units {[(n, emitted[n], u) for n, u in expected.items() if emitted.get(n) not in (None, u)]}"
    )
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), (name, metric)
    print(f"ok  {workload:10s} trace={trace}  {len(emitted)} metrics")


def check_refuses_without_program(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(
            ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
        assert done.returncode != 0, "ran without the program"
        assert done.stdout == "", f"printed a result without the program: {done.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_refuses_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
