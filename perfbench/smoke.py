"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

Runs ``run.py --smoke`` for each workload in ``BENCHMARK.json``, untraced
and traced, and fails unless each run exits 0, reports ``correct: true``,
and prints exactly the metric names and units ``BENCHMARK.json`` declares
for that mode.  It also checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files, and that no run leaves a process behind (each runs
in a session of its own, checked once it exits).  Takes about a minute::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def _session_members(sid: int) -> list[str]:
    """Processes (zombies too) still in session ``sid``, as ``pid (name)``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # ended while we looked
        head, _, rest = text.rpartition(")")
        if int(rest.split()[3]) == sid:
            found.append(f"{stat.parent.name} {head.split(' ', 1)[1]})")
    return found


def _run(cwd: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, list[str]]:
    """One tiny run, in a session of its own; also returns what outlived it."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    with subprocess.Popen(
        args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return (
        subprocess.CompletedProcess(args, proc.returncode, out, err),
        _session_members(proc.pid),
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, left = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if left:
                failures.append(f"{label}: left processes running: {left}")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no JSON result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"]:
                failures.append(f"{label}: exit {proc.returncode}, correct={result['correct']}")
            if got != expected[trace]:
                failures.append(f"{label}: metrics {sorted(got.items())} != {sorted(expected[trace].items())}")
            if result["attempted"] < 1 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: malformed result keys or counts {sorted(result)}")
            print(f"{label}: exit {proc.returncode}, {len(got)} metrics", flush=True)

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
        print(f"bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    for failure in failures:
        print(f"FAIL {failure}", flush=True)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
