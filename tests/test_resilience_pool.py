"""Unit tests for the process-isolated worker pool (repro.resilience.pool).

Process-backend tests spawn real child processes (spawn context, ~1-2s
import cost each); they are kept few and each one asserts several things.
The registered cells live in :mod:`tests.pool_cells` so spawned workers
can import them by module name.
"""

from __future__ import annotations

import pytest

import tests.pool_cells  # noqa: F401  — registers the test.* cells
from repro.digest import fingerprint
from repro.errors import ResilienceError
from repro.resilience import (
    BACKEND_INPROC,
    BACKEND_PROCESS,
    CellExecutor,
    CellSpec,
    Checkpoint,
    CrashFault,
    FaultPlan,
    HangFault,
    RetryPolicy,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    TransientFault,
    WorkerPool,
    register_cell,
    resolve_cell,
)
from tests.pool_cells import add_cell


def specs_for(*entries):
    """Build CellSpecs from (name, fn_id, params) triples."""
    return [
        CellSpec(key=("pool", name), fn_id=fn_id, params=params)
        for name, fn_id, params in entries
    ]


class TestRegistry:
    def test_lambda_rejected(self):
        with pytest.raises(ResilienceError, match="module-level"):
            register_cell("bad.lambda")(lambda: None)

    def test_nested_function_rejected(self):
        def nested():
            return None

        with pytest.raises(ResilienceError, match="module-level"):
            register_cell("bad.nested")(nested)

    def test_empty_id_rejected(self):
        with pytest.raises(ResilienceError, match="non-empty"):
            register_cell("")

    def test_reregistering_same_function_is_idempotent(self):
        assert register_cell("test.add")(add_cell) is add_cell

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ResilienceError, match="already registered"):
            register_cell("test.add")(tests.pool_cells.square_cell)

    def test_unknown_id_lists_registered(self):
        with pytest.raises(ResilienceError, match="test.add"):
            resolve_cell("no.such.cell")

    def test_resolve_imports_module_on_demand(self):
        assert resolve_cell("test.add", module="tests.pool_cells") is add_cell


class TestCellSpec:
    def test_key_normalized_to_string_tuple(self):
        spec = CellSpec(key=("sweep", 3), fn_id="test.add", params={})
        assert spec.key == ("sweep", "3")

    def test_params_are_copied(self):
        params = {"a": 1, "b": 2}
        spec = CellSpec(key=("k",), fn_id="test.add", params=params)
        params["a"] = 99
        assert spec.params["a"] == 1


class TestValidation:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ResilienceError, match="backend"):
            CellExecutor(backend="threads")

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ResilienceError, match="max_workers"):
            CellExecutor(backend=BACKEND_PROCESS, max_workers=0)

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ResilienceError, match="max_workers"):
            WorkerPool(max_workers=0)

    def test_pool_rejects_nonpositive_deadline(self):
        with pytest.raises(ResilienceError, match="deadline"):
            WorkerPool(max_workers=1, deadline=0.0)

    def test_process_backend_rejects_unregistered_spec_up_front(self):
        executor = CellExecutor(backend=BACKEND_PROCESS, max_workers=1)
        with pytest.raises(ResilienceError, match="no.such.cell"):
            executor.run_specs(
                [CellSpec(key=("k",), fn_id="no.such.cell", params={})]
            )


class TestProcessBackend:
    def test_matches_inproc_oracle_including_failures(self):
        entries = [
            ("add", "test.add", {"a": 1, "b": 2}),
            ("sq", "test.square", {"x": 7}),
            ("fail", "test.fail", {"message": "boom"}),
            ("untyped", "test.untyped", {}),
            ("internal", "test.internal", {}),
        ]
        policy = RetryPolicy(max_attempts=2)
        results = {}
        for backend in (BACKEND_INPROC, BACKEND_PROCESS):
            executor = CellExecutor(policy=policy, backend=backend, max_workers=2)
            outcomes = executor.run_specs(specs_for(*entries))
            results[backend] = [
                (o.key, o.status, o.value, o.error_type, o.attempts, o.marker)
                for o in outcomes
            ]
        assert results[BACKEND_PROCESS] == results[BACKEND_INPROC]
        markers = [row[5] for row in results[BACKEND_PROCESS]]
        assert markers == [
            "ok", "ok", "FAILED(DataError)", "FAILED(ValueError)",
            "FAILED(InternalError)",
        ]
        # Retryable DataError exhausted its budget; the rest never retried.
        attempts = [row[4] for row in results[BACKEND_PROCESS]]
        assert attempts == [1, 1, 2, 1, 1]

    def test_worker_crash_is_retried_then_degrades(self):
        faults = FaultPlan(
            cells={
                ("pool", "boom"): CrashFault(times=1, mode="exit"),
                ("pool", "dead"): CrashFault(times=3, mode="sigkill"),
            }
        )
        executor = CellExecutor(
            policy=RetryPolicy(max_attempts=2),
            faults=faults,
            backend=BACKEND_PROCESS,
            max_workers=2,
        )
        outcomes = executor.run_specs(
            specs_for(
                ("boom", "test.add", {"a": 2, "b": 3}),
                ("dead", "test.square", {"x": 3}),
                ("calm", "test.square", {"x": 4}),
            )
        )
        recovered, dead, calm = outcomes
        assert (recovered.status, recovered.value, recovered.attempts) == (
            STATUS_OK, 5, 2,
        )
        assert dead.marker == "FAILED(WorkerCrash)"
        assert dead.attempts == 2
        assert "killed by SIGKILL" in dead.error_message
        assert (calm.status, calm.value, calm.attempts) == (STATUS_OK, 16, 1)

    def test_hang_is_hard_killed_into_timeout(self):
        faults = FaultPlan(cells={("pool", "wedge"): HangFault(seconds=60.0)})
        executor = CellExecutor(
            policy=RetryPolicy(max_attempts=3),  # timeouts not retryable here
            deadline=3.0,
            faults=faults,
            backend=BACKEND_PROCESS,
            max_workers=1,
        )
        outcomes = executor.run_specs(
            specs_for(("wedge", "test.add", {"a": 1, "b": 1}))
        )
        assert outcomes[0].status == STATUS_TIMEOUT
        assert outcomes[0].marker == "TIMEOUT"
        assert outcomes[0].attempts == 1
        assert "deadline" in outcomes[0].error_message

    def test_unpicklable_result_degrades_not_crashes(self):
        executor = CellExecutor(backend=BACKEND_PROCESS, max_workers=1)
        outcomes = executor.run_specs(specs_for(("lam", "test.unpicklable", {})))
        assert outcomes[0].status == STATUS_FAILED
        assert "could not be pickled" in outcomes[0].error_message

    def test_parent_side_faults_fire_at_dispatch(self):
        faults = FaultPlan(cells={("pool", "flaky"): TransientFault(times=1)})
        executor = CellExecutor(
            policy=RetryPolicy(max_attempts=3),
            faults=faults,
            backend=BACKEND_PROCESS,
            max_workers=1,
        )
        outcomes = executor.run_specs(
            specs_for(("flaky", "test.add", {"a": 1, "b": 2}))
        )
        assert (outcomes[0].status, outcomes[0].value) == (STATUS_OK, 3)
        assert outcomes[0].attempts == 2

    def test_checkpoint_resume_across_backends(self, tmp_path):
        path = tmp_path / "ck.json"
        run_id = fingerprint({"suite": "pool-resume"})
        entries = [
            ("a", "test.square", {"x": 2}),
            ("b", "test.square", {"x": 3}),
            ("c", "test.square", {"x": 4}),
        ]
        first = CellExecutor(
            checkpoint=Checkpoint(path, run_id, resume=False),
            backend=BACKEND_INPROC,
        )
        first.run_specs(specs_for(*entries[:2]))

        second = CellExecutor(
            checkpoint=Checkpoint(path, run_id, resume=True),
            backend=BACKEND_PROCESS,
            max_workers=2,
        )
        outcomes = second.run_specs(specs_for(*entries))
        assert [o.value for o in outcomes] == [4, 9, 16]
        # The two restored cells kept their original attempt counts and the
        # checkpoint now holds all three.
        assert Checkpoint(path, run_id).n_done == 3

    def test_worker_obs_merges_into_parent_tracer(self):
        from repro.obs import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            executor = CellExecutor(backend=BACKEND_PROCESS, max_workers=2)
            outcomes = executor.run_specs(
                specs_for(
                    ("t1", "test.traced", {"n": 1}),
                    ("t2", "test.traced", {"n": 2}),
                )
            )
        assert [o.value for o in outcomes] == [2, 4]
        names = [s.name for s in tracer.spans]
        assert names.count("traced_cell") == 2
        assert names.count("traced_inner") == 2
        assert tracer.counter("test.cells").value == 2
        assert tracer.counter("test.total").value == 3
        workers = {
            s.attrs.get("worker") for s in tracer.spans
            if s.name == "traced_cell"
        }
        assert workers <= {0, 1} and workers

    def test_warm_pool_reuses_workers_and_shared_dataset(self):
        """Across run_specs calls: workers stay warm, the dataset ships once.

        The zero-copy plane's acceptance pins: one content-addressed
        segment published for the whole executor lifetime, one attach per
        worker, spawn spans only for the first run, refs (not arrays) on
        the wire, and the segment unlinked exactly at ``close()``.
        """
        from repro.data.synth import load_compas
        from repro.obs import Tracer, tracing
        from repro.resilience import published_segments

        data = load_compas(120, seed=9)
        read = {"data": data, "seconds": 0.0, "steps": 1}
        tracer = Tracer()
        with tracing(tracer):
            with CellExecutor(backend=BACKEND_PROCESS, max_workers=2) as ex:
                first = ex.run_specs(
                    specs_for(("a", "test.slow_read", dict(read)),
                              ("b", "test.slow_read", dict(read)))
                )
                assert len(published_segments()) == 1
                second = ex.run_specs(
                    specs_for(("c", "test.slow_read", dict(read)))
                )
            assert published_segments() == {}  # released at close()
        values = {o.value for o in first + second}
        assert len(values) == 1  # same dataset, same sum, every cell
        totals = tracer.metric_totals()
        assert totals["shm.segments_published"] == 1
        assert totals["shm.segments_unlinked"] == 1
        assert totals["shm.segments_attached"] == 2  # once per warm worker
        spawns = [s for s in tracer.spans if s.name == "pool.spawn"]
        assert len(spawns) == 2  # no respawns for the second run
        # Three dispatches shipped refs, not arrays: far below the data size.
        assert 0 < totals["pool.bytes_shipped"] < data.y.nbytes * 3 + 10_000
