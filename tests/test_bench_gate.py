"""The benchmark gate table in ``scripts/bench.py``.

* **Verdict equivalence** — on fixtures built from the committed
  ``BENCH_*.json`` files, the gate passes and fails exactly where the
  per-kind checker it replaced did.  ``PARENT_VERDICTS`` holds that
  checker's verdicts, recorded by running it on these same fixtures.
* **Missing metrics** — a gated metric or field missing from a record fails
  by name (the old checker read a missing stream growth ratio as 0 and a
  missing pool ``cpu_count`` as one CPU, and passed both).
* **Pinned bounds** — every threshold is spelled out here, so loosening
  one fails a test; the fixtures nudge around these values, not around
  the table's, so they pin the bounds too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import bench  # noqa: E402

#: Four warm workers vs one: the floor by CPU count.
POOL_FLOORS = {1: 0.8, 3: 0.8, 4: 1.5, 8: 1.5}

#: Every gate row: (workload, metric, direction, tolerance, absolute bound).
PINNED = (
    ("ibs", "speedup_vs_optimized", "floor", 0.25, None),
    ("pool", "speedup_workers4_vs_1", "floor", None, POOL_FLOORS),
    ("stream", "deltas_per_sec", "floor", 0.5, None),
    ("stream", "batch_p95_seconds", "ceiling", 0.5, None),
    ("stream", "late_over_early_p95", "ceiling", None, 3.0),
    ("data", "sharded_seconds", "ceiling", 0.5, None),
    ("data", "sharded_peak_rss_mb", "ceiling", None, 512.0),
    ("serve", "gateway_deltas_per_sec", "floor", 0.5, None),
    ("serve", "shed_p95_seconds", "ceiling", 2.0, None),
    ("serve", "gateway_over_direct", "floor", None, 0.10),
    ("serve", "shed_requests", "floor", None, 1),
)

#: (re-baseline rows, CI rows) per workload; None runs pytest's defaults.
SIZES = {
    "ibs": (None, None),
    "pool": (4000, 4000),
    "stream": (1_000_000, 100_000),
    "data": ((1_000_000, 10_000_000), (1_000_000,)),
    "serve": (100_000, 20_000),
}

#: The replaced checker's verdict per fixture (True: exit 0).
PARENT_VERDICTS = {
    "ibs/self": True,
    "pool/self": True,
    "stream/self": True,
    "data/self": True,
    "serve/self": True,
    "ibs/speedup_vs_optimized/inside": True,
    "ibs/speedup_vs_optimized/past": False,
    "pool/speedup_workers4_vs_1/cpu1/inside": True,
    "pool/speedup_workers4_vs_1/cpu4/inside": True,
    "pool/speedup_workers4_vs_1/cpu1/past": False,
    "pool/speedup_workers4_vs_1/cpu4/past": False,
    "stream/deltas_per_sec/inside": True,
    "stream/deltas_per_sec/past": False,
    "stream/batch_p95_seconds/inside": True,
    "stream/batch_p95_seconds/past": False,
    "stream/late_over_early_p95/inside": True,
    "stream/late_over_early_p95/past": False,
    "data/sharded_seconds/inside": True,
    "data/sharded_seconds/past": False,
    "data/sharded_peak_rss_mb/inside": True,
    "data/sharded_peak_rss_mb/past": False,
    "serve/gateway_deltas_per_sec/inside": True,
    "serve/gateway_deltas_per_sec/past": False,
    "serve/shed_p95_seconds/inside": True,
    "serve/shed_p95_seconds/past": False,
    "serve/gateway_over_direct/inside": True,
    "serve/gateway_over_direct/past": False,
    "serve/shed_requests/inside": True,
    "serve/shed_requests/past": False,
    "ibs/missing-point": False,
    "data/no-shared-scale": False,
    "serve/no-shed": False,
    "pool/cpu1": True,
    "pool/cpu4": False,
}


def committed(name: str) -> dict:
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


def points(name: str, record: dict) -> list[dict]:
    """The gated points of ``record``, as mutable references into it."""
    if name == "ibs":
        return [b["extra_info"] for b in record["benchmarks"]]
    if name == "data":
        return record["points"]
    return [record]


def nudged(limit: float, direction: str, inside: bool) -> float:
    """A value just inside or just past ``limit`` for a floor or ceiling."""
    up = (direction == "floor") == inside
    return limit * (1 + 1e-6) if up else limit * (1 - 1e-6)


def cases() -> list[tuple[str, str, dict, dict]]:
    """(id, workload, fresh, baseline) fixtures, from the committed files."""
    out = [(f"{name}/self", name, committed(name), committed(name))
           for name in bench.WORKLOADS]
    for name, metric, direction, tolerance, bound in PINNED:
        for inside in (True, False):
            side = "inside" if inside else "past"
            if name == "pool":
                for cpus in (1, 4):
                    fresh = committed(name)
                    fresh["cpu_count"] = cpus
                    fresh[metric] = nudged(bound[cpus], direction, inside)
                    out.append((f"pool/{metric}/cpu{cpus}/{side}", name,
                                fresh, committed(name)))
                continue
            fresh = committed(name)
            for point in points(name, fresh):
                if tolerance is None:
                    limit = bound
                else:
                    sign = -1 if direction == "floor" else 1
                    limit = point[metric] * (1 + sign * tolerance)
                point[metric] = nudged(limit, direction, inside)
            out.append((f"{name}/{metric}/{side}", name, fresh, committed(name)))

    fresh = committed("ibs")
    fresh["benchmarks"] = [b for b in fresh["benchmarks"]
                           if b["extra_info"].get("n_attrs") != 6]
    out.append(("ibs/missing-point", "ibs", fresh, committed("ibs")))
    fresh = committed("data")
    for point in fresh["points"]:
        point["rows"] *= 3
    out.append(("data/no-shared-scale", "data", fresh, committed("data")))
    fresh = committed("serve")
    fresh["shed_requests"] = 0
    out.append(("serve/no-shed", "serve", fresh, committed("serve")))
    for cpus in (1, 4):
        fresh = committed("pool")
        fresh["cpu_count"] = cpus
        out.append((f"pool/cpu{cpus}", "pool", fresh, committed("pool")))
    return out


CASES = cases()


def test_every_fixture_has_a_recorded_verdict():
    assert sorted(PARENT_VERDICTS) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_verdict_matches_the_replaced_checker(case):
    case_id, name, fresh, baseline = case
    problems = bench.gate(bench.WORKLOADS[name], fresh, baseline)
    assert (not problems) is PARENT_VERDICTS[case_id], problems


MISSING = [(name, metric, "fresh") for name, metric, *_ in PINNED] + [
    (name, metric, "baseline")
    for name, metric, _, tolerance, _ in PINNED if tolerance is not None
] + [("pool", "cpu_count", "fresh"), ("data", "rows", "fresh")]


@pytest.mark.parametrize("name,field,side", MISSING,
                         ids=[f"{n}-{f}-{s}" for n, f, s in MISSING])
def test_a_missing_metric_or_field_fails_by_name(name, field, side):
    fresh, baseline = committed(name), committed(name)
    for point in points(name, fresh if side == "fresh" else baseline):
        del point[field]
    problems = bench.gate(bench.WORKLOADS[name], fresh, baseline)
    assert problems and all(repr(field) in line for line in problems), problems


def test_no_gated_points_fails():
    fresh = committed("ibs")
    fresh["benchmarks"] = []
    assert bench.gate(bench.WORKLOADS["ibs"], fresh, committed("ibs"))


def test_every_bound_is_pinned():
    table = []
    for workload in bench.WORKLOADS.values():
        for g in workload.gates:
            bound = g.bound
            if callable(bound):
                bound = {cpus: bound({"cpu_count": cpus}) for cpus in POOL_FLOORS}
            table.append((workload.name, g.metric, g.direction, g.tolerance, bound))
    assert tuple(table) == PINNED


def test_sizes_and_missing_point_rules_are_pinned():
    assert {w.name: (w.rows, w.ci_rows) for w in bench.WORKLOADS.values()} == SIZES
    # Only data's CI run measures a subset of its baseline's points.
    assert [w.name for w in bench.WORKLOADS.values() if w.shared_points_only] == ["data"]
    for workload in bench.WORKLOADS.values():
        assert workload.baseline == REPO / f"BENCH_{workload.name}.json"


@pytest.mark.parametrize("argv", [[], ["nope"], ["--check", "nope"]])
def test_cli_rejects_missing_or_unknown_workloads(argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
