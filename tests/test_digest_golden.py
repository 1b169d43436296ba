"""Golden digests: every persisted or compared hash, pinned to literal hex.

Journal chains, batch manifests, auditor state digests, store schema and
manifest digests, checkpoint run ids, trace config hashes and the
analyzer cache salt are all durable identities: a file written by one
version must verify under the next.  Each is pinned here to the hex the
code produced when these tests were written, and two tiny on-disk
fixtures (a stream directory and a sharded store) must still replay and
verify to pinned digests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from repro.analysis import cache as analysis_cache
from repro.analysis.cache import cache_salt
from repro.cli import _build_executor, build_parser
from repro.data import Column, Dataset, Schema
from repro.data.store import (
    Registry,
    manifest_digest,
    read_manifest,
    schema_digest,
    verify_store,
)
from repro.digest import canonical_json, file_sha256, fingerprint
from repro.obs.manifest import build_manifest
from repro.serve.protocol import canonical_json_bytes
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, StreamConfig, _record_sha
from repro.stream.service import StreamService

FIXTURES = Path(__file__).parent / "fixtures" / "digest"

STREAM_DIGEST = "c1109c36c7e1063e8a72aef56a31e969c05f7e6863e6e68e0275a2ced49a5bf6"

CANONICAL = '{"a":"caf\\u00e9","m":{"x":{"k":-0.1},"y":[]},"z":[1,2.5,{"a":true,"b":null}]}'

NESTED = {
    "z": [1, 2.5, {"b": None, "a": True}],
    "a": "café",
    "m": {"y": [], "x": {"k": -0.1}},
}


def stream_config() -> StreamConfig:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
        ]
    )
    return StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)


def stream_batches() -> list:
    return [
        (
            "b0",
            [
                InsertDelta((0, 0), 1),
                InsertDelta((0, 1), 0),
                InsertDelta((1, 2), 1),
                InsertDelta((1, 0), 0),
            ],
        ),
        ("b1", [DeleteDelta(1), RelabelDelta(0, 0), InsertDelta((0, 2), 1)]),
    ]


def store_dataset() -> Dataset:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
            Column("s", "numeric"),
        ]
    )
    return Dataset(
        schema,
        {
            "a": np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 1]),
            "b": np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
            "s": np.array([0.5, 1.25, -2.0, 3.0, 0.0, 7.5, 1.0, 2.5, -0.25, 4.0]),
        },
        np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0]),
        protected=("a", "b"),
    )


class TestJournal:
    def test_record_sha(self):
        payload = {"id": "b0", "deltas": [["i", [0, 1], 1]]}
        assert _record_sha("", 0, "batch", payload) == (
            "7c7395d33a50f7c4d700a429d05aff8feeb1f331ae6fc0357e21d7c53e0d7892"
        )
        assert _record_sha("ab" * 32, 7, "rows", [1, 2]) == (
            "63ee792c45cebfe89ef94b316481b89559bbb46488222e719a2969178be50368"
        )

    def test_genesis_envelope_line(self, tmp_path):
        log = DeltaLog.create(tmp_path / "s", stream_config())
        log.close()
        (segment,) = sorted((tmp_path / "s").glob("segment-*.jsonl"))
        line = segment.read_bytes()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        envelope = json.loads(line)
        assert envelope["sha"] == (
            "50e7424fb937480ba24f73d03b097da5a1dd9a293da46c4fe641960edfb2e765"
        )
        assert hashlib.sha256(line).hexdigest() == (
            "3d81caa2a999f5e26dd5360925af332398542f33230552eaed269026584dc180"
        )

    def test_batch_manifest_sha(self, tmp_path):
        log = DeltaLog.create(tmp_path / "s", stream_config())
        log.append_batch("b0", [["i", [0, 1], 1], ["d", 0], ["r", 2, 0]])
        log.close()
        batch = [r for r in DeltaLog.open(tmp_path / "s").records() if r.type == "batch"]
        assert batch[0].payload["manifest"]["sha"] == (
            "36046c915a9fe087fd8fabd59e86f7faea46556011d0a03f04ffb2c46efcd6db"
        )

    def test_auditor_digest_after_fixed_ingest(self, tmp_path):
        service = StreamService.create(tmp_path / "s", stream_config())
        service.ingest(stream_batches())
        assert service.auditor.digest() == STREAM_DIGEST
        service.close()


class TestStore:
    def test_schema_digest(self):
        dataset = store_dataset()
        assert schema_digest(dataset.schema, dataset.protected) == (
            "168f28a5057e5d7bb81773a8e8b567aeca5ffde71057a5044c0aaa04c8234831"
        )

    def test_manifest_digest(self):
        manifest = {"n_rows": 3, "schema": {"columns": []}, "shards": [{"dir": "x"}]}
        assert manifest_digest(manifest) == (
            "b2337c24bdd05ad4d2cec7c02c1b3060e0fa8a7cedc6efff5dc072cac0463399"
        )


class TestEncodings:
    def test_canonical_json(self):
        assert canonical_json(NESTED) == CANONICAL

    def test_canonical_json_bytes(self):
        assert canonical_json_bytes(NESTED) == (CANONICAL + "\n").encode()
        assert hashlib.sha256(canonical_json_bytes(NESTED)).hexdigest() == (
            "739f19eafd8732bab41dedfd49e248bceb5e6220dc48fa3e3ddb682c74dff2ff"
        )

    def test_file_sha256(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(256)) * 5000)
        assert file_sha256(path) == (
            "7d471e4af16db5a30ce10aebbc29f5178b2edbad6c7dc2e8ff8ee6e4848a726f"
        )


class TestFingerprints:
    def test_run_id_from_cli(self, tmp_path):
        args = build_parser().parse_args(
            [
                "experiment", "fig3", "--rows", "500", "--seed", "3",
                "--checkpoint", str(tmp_path / "ck.json"),
            ]
        )
        executor = _build_executor(args)
        assert executor.checkpoint.run_id == "12d7014731e1e679"
        assert executor.checkpoint.run_id == fingerprint(
            {"experiment": "fig3", "rows": 500, "models": ["dt", "lg"], "seed": 3}
        )

    def test_config_hash(self):
        params = {"rows": 1000, "tau_c": 0.1, "models": ["dt"], "out": Path("a/b")}
        assert fingerprint(params) == "ed10f1809c8072ba"
        assert build_manifest("experiment", params, seed=1).config_hash == (
            "ed10f1809c8072ba"
        )

    def test_non_json_value_falls_back_to_str(self):
        assert fingerprint({"p": Path("x"), "q": object}) == "70857c5a29391d13"
        assert fingerprint({"p": "x", "q": str(object)}) == "70857c5a29391d13"

    def test_cache_salt(self, monkeypatch):
        monkeypatch.setattr(analysis_cache, "analyzer_digest", lambda: "0" * 64)
        assert cache_salt(("R002", "R001"), ("b", "a")) == "de5e9a4f4142ada8"


class TestFixtures:
    def test_stream_fixture_replays(self, tmp_path):
        directory = tmp_path / "stream"
        shutil.copytree(FIXTURES / "stream", directory)
        log = DeltaLog.open(directory)
        assert log.n_batches == 2
        assert StreamAuditor.from_journal(log).digest() == STREAM_DIGEST
        log.close()

    def test_stream_fixture_segment_bytes(self):
        (segment,) = (FIXTURES / "stream").glob("segment-*.jsonl")
        assert file_sha256(segment) == (
            "38e2891a94bc6299dab6d84759042b382c78f72ae77807c2df34724b9e44b3e4"
        )

    def test_store_fixture_verifies(self, tmp_path):
        path = tmp_path / "tiny"
        shutil.copytree(FIXTURES / "store" / "tiny", path)
        report = verify_store(path)
        assert (report["n_rows"], report["n_shards"], report["files_checked"]) == (
            10, 3, 12,
        )
        manifest = read_manifest(path)
        assert manifest["schema_sha256"] == (
            "168f28a5057e5d7bb81773a8e8b567aeca5ffde71057a5044c0aaa04c8234831"
        )
        assert manifest_digest(manifest) == (
            "38d408b37888be420ee375ccaeb8eb3b692abdd0708fb1356aca6dfb792f8280"
        )

    def test_store_writer_reproduces_fixture(self, tmp_path):
        Registry(tmp_path).materialize("tiny", store_dataset(), shard_rows=4)
        assert manifest_digest(read_manifest(tmp_path / "tiny")) == (
            "38d408b37888be420ee375ccaeb8eb3b692abdd0708fb1356aca6dfb792f8280"
        )
