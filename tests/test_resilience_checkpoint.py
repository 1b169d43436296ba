"""Unit tests for sweep checkpoints (repro.resilience.checkpoint)."""

from __future__ import annotations

import json

import pytest

from repro.digest import fingerprint
from repro.errors import CheckpointError
from repro.resilience import (
    CHECKPOINT_VERSION,
    CellExecutor,
    Checkpoint,
    inspect_checkpoint,
    prune_checkpoints,
)


class TestRunId:
    def test_stable_across_calls(self):
        assert fingerprint({"a": 1, "b": "x"}) == fingerprint({"a": 1, "b": "x"})

    def test_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_different_params_differ(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_non_json_values_stringified(self):
        assert fingerprint({"p": object}) == fingerprint({"p": object})


class TestCheckpoint:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "run1")
        ck.record(("a", "1"), {"value": {"x": 1}, "attempts": 2})
        back = Checkpoint(path, "run1")
        assert ("a", "1") in back
        assert back.get(("a", "1"))["value"] == {"x": 1}
        assert back.get(("a", "1"))["attempts"] == 2
        assert len(back) == 1
        assert back.keys() == (("a", "1"),)

    def test_missing_file_starts_empty(self, tmp_path):
        ck = Checkpoint(tmp_path / "none.json", "run1")
        assert len(ck) == 0
        assert ck.get(("a",)) is None

    def test_resume_false_ignores_existing(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(path, "run1").record(("a",), {"value": 1})
        fresh = Checkpoint(path, "run1", resume=False)
        assert len(fresh) == 0

    def test_run_id_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(path, "run1").record(("a",), {"value": 1})
        with pytest.raises(CheckpointError, match="different configuration"):
            Checkpoint(path, "run2")

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "run_id": "r", "cells": []}))
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint(path, "r")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint(path, "r")

    def test_missing_cells_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION, "run_id": "r"}))
        with pytest.raises(CheckpointError, match="malformed"):
            Checkpoint(path, "r")

    def test_malformed_cell_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps(
                {
                    "version": CHECKPOINT_VERSION,
                    "run_id": "r",
                    "cells": [{"no_key": True}],
                }
            )
        )
        with pytest.raises(CheckpointError, match="malformed cell"):
            Checkpoint(path, "r")

    def test_document_shape_on_disk(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "run1")
        ck.record(("b",), {"value": 2})
        ck.record(("a",), {"value": 1})
        doc = json.loads(path.read_text())
        assert doc["version"] == CHECKPOINT_VERSION
        assert doc["run_id"] == "run1"
        # cells are sorted by key for clean diffs
        assert [c["key"] for c in doc["cells"]] == [["a"], ["b"]]

    def test_record_overwrites_same_key(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "run1")
        ck.record(("a",), {"value": 1})
        ck.record(("a",), {"value": 2})
        assert len(ck) == 1
        assert Checkpoint(path, "run1").get(("a",))["value"] == 2


class TestExecutorCheckpointing:
    def test_completed_cells_not_rerun_on_resume(self, tmp_path):
        path = tmp_path / "ck.json"
        calls: list[str] = []

        def cell(name):
            calls.append(name)
            return f"value:{name}"

        first = CellExecutor(checkpoint=Checkpoint(path, "r"))
        first.run_cell(("a",), lambda: cell("a"))
        first.run_cell(("b",), lambda: cell("b"))
        assert calls == ["a", "b"]

        resumed = CellExecutor(checkpoint=Checkpoint(path, "r"))
        out_a = resumed.run_cell(("a",), lambda: cell("a"))
        out_c = resumed.run_cell(("c",), lambda: cell("c"))
        assert calls == ["a", "b", "c"]  # "a" restored, not re-run
        assert out_a.resumed and out_a.value == "value:a"
        assert not out_c.resumed
        assert resumed.n_resumed == 1

    def test_failed_cells_are_recorded_but_not_restorable(self, tmp_path):
        path = tmp_path / "ck.json"
        executor = CellExecutor(checkpoint=Checkpoint(path, "r"))
        executor.run_cell(("bad",), lambda: 1 / 0)
        executor.run_cell(("good",), lambda: 1)
        back = Checkpoint(path, "r")
        # the failure is persisted for inspection, but get()/in treat it as
        # absent so the cell is re-attempted on resume
        assert ("good",) in back and ("bad",) not in back
        assert back.get(("bad",)) is None
        assert back.n_done == 1 and back.n_failed == 1

    def test_codecs_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"

        executor = CellExecutor(checkpoint=Checkpoint(path, "r"))
        executor.run_cell(
            ("k",),
            lambda: (1, 2),
            encode=lambda v: list(v),
            decode=tuple,
        )
        resumed = CellExecutor(checkpoint=Checkpoint(path, "r"))
        outcome = resumed.run_cell(
            ("k",),
            lambda: (9, 9),
            encode=lambda v: list(v),
            decode=tuple,
        )
        assert outcome.resumed and outcome.value == (1, 2)

    def test_checkpoint_flushed_per_cell(self, tmp_path):
        """Every completed cell is durable immediately — interrupt-safe."""
        path = tmp_path / "ck.json"
        executor = CellExecutor(checkpoint=Checkpoint(path, "r"))
        executor.run_cell(("a",), lambda: 1)
        assert ("a",) in Checkpoint(path, "r")  # visible before the sweep ends


class TestRecordFailure:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "r")
        ck.record(("ok",), {"value": 1, "attempts": 1})
        ck.record_failure(("bad",), "failed", "DataError", "boom", 3)
        ck.record_failure(("slow",), "timeout", None, "deadline", 1)

        back = Checkpoint(path, "r")
        assert back.n_done == 1 and back.n_failed == 2
        assert len(back) == 3
        assert back.keys() == (("bad",), ("ok",), ("slow",))
        # failed entries are invisible to get()/in, so resume re-runs them
        assert back.get(("bad",)) is None and ("bad",) not in back
        assert back.get(("slow",)) is None and ("slow",) not in back
        assert ("ok",) in back

    def test_failure_entry_shape_on_disk(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(path, "r").record_failure(("bad",), "failed", "DataError", "boom", 3)
        (entry,) = json.loads(path.read_text())["cells"]
        assert entry == {
            "key": ["bad"],
            "status": "failed",
            "error_type": "DataError",
            "error_message": "boom",
            "attempts": 3,
        }

    def test_success_overwrites_prior_failure(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "r")
        ck.record_failure(("a",), "failed", "DataError", "boom", 2)
        ck.record(("a",), {"value": 5, "attempts": 1})
        back = Checkpoint(path, "r")
        assert back.get(("a",))["value"] == 5
        assert back.n_done == 1 and back.n_failed == 0


class TestInspect:
    def test_summary_fields(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, "run-abc")
        ck.record(("a", "1"), {"value": 1})
        ck.record_failure(("b", "2"), "failed", "DataError", "boom", 3)
        ck.record_failure(("a", "9"), "timeout", None, "deadline", 1)

        info = inspect_checkpoint(path)
        assert info["run_id"] == "run-abc"
        assert info["version"] == CHECKPOINT_VERSION
        assert (info["n_cells"], info["n_done"], info["n_failed"]) == (3, 1, 2)
        assert info["failed"] == ["a/9", "b/2"]
        assert 0.0 <= info["age_seconds"] < 3600.0
        assert info["path"] == str(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            inspect_checkpoint(tmp_path / "none.json")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            inspect_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "run_id": "r", "cells": []}))
        with pytest.raises(CheckpointError, match="version"):
            inspect_checkpoint(path)


class TestPrune:
    @staticmethod
    def _write_checkpoint(path, run_id, mtime):
        import os

        Checkpoint(path, run_id).record(("a",), {"value": 1})
        os.utime(path, (mtime, mtime))

    def test_keeps_newest_by_mtime(self, tmp_path):
        for i, name in enumerate(["old.json", "mid.json", "new.json"]):
            self._write_checkpoint(tmp_path / name, f"r{i}", 1000.0 + i)
        deleted = prune_checkpoints([tmp_path], keep_latest=1)
        assert deleted == (tmp_path / "mid.json", tmp_path / "old.json")
        assert (tmp_path / "new.json").exists()

    def test_mixes_files_and_directories(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        self._write_checkpoint(sub / "a.json", "r1", 1000.0)
        self._write_checkpoint(tmp_path / "b.json", "r2", 2000.0)
        deleted = prune_checkpoints([sub, tmp_path / "b.json"], keep_latest=1)
        assert deleted == (sub / "a.json",)

    def test_non_checkpoint_json_untouched(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hello": "world"}))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        self._write_checkpoint(tmp_path / "ck.json", "r", 1000.0)
        deleted = prune_checkpoints([tmp_path], keep_latest=0)
        assert deleted == (tmp_path / "ck.json",)
        assert other.exists() and garbage.exists()

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep_latest"):
            prune_checkpoints([tmp_path], keep_latest=-1)
