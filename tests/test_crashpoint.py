"""Crash points, the shared drill helpers, and crash-point site coverage."""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.crashpoint import (
    CRASH_EXIT,
    CRASH_EXIT_CODE,
    CRASH_SIGKILL,
    CRASHPOINT_ENV,
    HANG,
    crashpoint,
)
from repro.errors import InternalError, ResilienceError
from repro.resilience import drill

SRC = Path(repro.__file__).resolve().parent

_TWO_KEYS = (
    "from repro.crashpoint import crashpoint\n"
    "crashpoint('test.site', 'a')\n"
    "print('passed a', flush=True)\n"
    "crashpoint('test.site', 'b')\n"
    "print('survived b', flush=True)\n"
)


def _python(code: str, armed: dict | None) -> subprocess.CompletedProcess:
    env = drill.drill_env(armed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=60
    )


class TestCrashpoint:
    @pytest.mark.parametrize(
        "mode, status",
        [(CRASH_EXIT, CRASH_EXIT_CODE), (CRASH_SIGKILL, -signal.SIGKILL)],
    )
    def test_armed_plan_passes_other_keys_and_dies_at_its_own(self, mode, status):
        proc = _python(_TWO_KEYS, drill.arm("test.site", "b", mode))
        assert proc.returncode == status == drill.exit_status(mode)
        assert proc.stdout == b"passed a\n"

    def test_unset_variable_is_inert(self):
        proc = _python(_TWO_KEYS, None)
        assert proc.returncode == 0
        assert proc.stdout == b"passed a\nsurvived b\n"

    def test_hang_sleeps_then_returns(self, monkeypatch):
        monkeypatch.setenv(
            CRASHPOINT_ENV,
            '{"site": "s", "key": 3, "mode": "hang", "seconds": 0.01}',
        )
        assert crashpoint("s", 3) is None

    @pytest.mark.parametrize(
        "spec, why",
        [
            ("kill_after_shard:x", "not JSON"),
            ('{"site": "s", "mode": "exit"}', "lacks"),
            ('{"site": "s", "key": "k", "mode": "hang"}', "lacks"),
            ('{"site": "s", "key": "k", "mode": "explode"}', "mode must be"),
        ],
    )
    def test_malformed_plan_is_a_typed_error_naming_the_variable(
        self, monkeypatch, spec, why
    ):
        monkeypatch.setenv(CRASHPOINT_ENV, spec)
        with pytest.raises(ResilienceError, match=why) as info:
            crashpoint("s", "k")
        assert CRASHPOINT_ENV in str(info.value)

    def test_pool_fault_descriptors_share_the_plan_shape(self):
        from repro.resilience import CrashFault, HangFault

        assert CrashFault(mode=CRASH_SIGKILL).worker_action(("c",), 1) == {
            "mode": CRASH_SIGKILL
        }
        assert HangFault(seconds=5.0).worker_action(("c",), 1) == {
            "mode": HANG, "seconds": 5.0
        }


def _sleeper(pid_file: Path) -> list[str]:
    """A child that publishes its pid atomically, then sleeps."""
    tmp = f"{pid_file}.tmp"
    return [
        sys.executable, "-c",
        "import os, time\n"
        f"open({tmp!r}, 'w').write(str(os.getpid()))\n"
        f"os.replace({tmp!r}, {str(pid_file)!r})\n"
        "time.sleep(600)\n",
    ]


def _assert_reaped(pid: int) -> None:
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


class TestKillWhen:
    def test_raising_predicate_kills_and_reaps_the_victim(self, tmp_path):
        pid_file = tmp_path / "pid"
        pids = []

        def ready() -> bool:
            if pid_file.exists():
                pids.append(int(pid_file.read_text()))
                raise OSError("segment unreadable")
            return False

        with pytest.raises(OSError, match="segment unreadable"):
            drill.kill_when(_sleeper(pid_file), ready, timeout=60)
        _assert_reaped(pids[0])

    def test_victim_is_killed_once_ready(self, tmp_path):
        pid_file = tmp_path / "pid"
        drill.kill_when(_sleeper(pid_file), pid_file.exists, timeout=60)
        _assert_reaped(int(pid_file.read_text()))

    def test_victim_exiting_first_is_an_error(self):
        with pytest.raises(InternalError, match="before its kill window"):
            drill.kill_when([sys.executable, "-c", "pass"], lambda: False)


def _crashpoint_sites() -> dict[str, list[str]]:
    """Every ``crashpoint("<site>", ...)`` call under ``src/repro``."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "crashpoint":
                continue
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            site = node.args[0] if node.args else None
            assert isinstance(site, ast.Constant) and isinstance(site.value, str), (
                f"{where}: a crash point's site must be a string literal"
            )
            sites.setdefault(site.value, []).append(where)
    return sites


def test_every_crash_point_is_drilled_and_every_drill_site_exists():
    from repro.data.chaos import SCENARIOS as data_scenarios
    from repro.resilience.chaos import SCENARIOS as pool_scenarios
    from repro.serve.chaos import SCENARIOS as serve_scenarios
    from repro.stream.chaos import SCENARIOS as stream_scenarios

    sites = _crashpoint_sites()
    suites = (pool_scenarios, stream_scenarios, data_scenarios, serve_scenarios)
    drilled = {s.site for suite in suites for s in suite if s.site is not None}
    assert sites, "no crashpoint() call found under src/repro"
    undrilled = {site: sites[site] for site in set(sites) - drilled}
    assert not undrilled, f"crash points no scenario drills: {undrilled}"
    assert not drilled - set(sites), (
        f"scenarios arm sites with no crashpoint(): {drilled - set(sites)}"
    )
