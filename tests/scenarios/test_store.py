"""Content-keyed result store semantics."""

import json

from repro.scenarios.store import (
    QUARANTINE_FILE,
    ResultStore,
    append_quarantine,
    canonical_json,
    content_key,
)


class TestContentKey:
    def test_stable_across_key_order(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_canonical_json_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        request = {"scenario": "x", "seed": 0}
        key = content_key(request)
        assert store.get(key) is None
        store.put(key, request, {"energy_kwh": 1.5})
        record = store.get(key)
        assert record["result"] == {"energy_kwh": 1.5}
        assert record["request"] == request
        assert len(store) == 1

    def test_changed_request_misses(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(content_key({"seed": 0}), {"seed": 0}, {"v": 1})
        assert store.get(content_key({"seed": 1})) is None

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 0})
        store.put(key, {"seed": 0}, {"v": 1})
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None
        # The corrupt record is gone: it can't shadow a future recompute.
        assert not store.path_for(key).exists()
        assert len(store) == 0

    def test_truncated_record_from_killed_worker_is_healed(self, tmp_path):
        """Regression: a mid-write kill used to leave a record that made
        every subsequent sweep re-raise instead of recomputing."""
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 1})
        path = store.put(key, {"seed": 1}, {"v": 1})
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # truncate, as SIGKILL would
        assert store.get(key) is None
        assert not path.exists()
        # The slot works again after recomputation.
        store.put(key, {"seed": 1}, {"v": 2})
        assert store.get(key)["result"] == {"v": 2}

    def test_non_dict_record_is_a_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 2})
        store.put(key, {"seed": 2}, {"v": 1})
        store.path_for(key).write_text('["valid json", "wrong shape"]')
        assert store.get(key) is None
        assert not store.path_for(key).exists()

    def test_record_missing_result_is_a_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 3})
        store.put(key, {"seed": 3}, {"v": 1})
        store.path_for(key).write_text('{"request": {"seed": 3}}')
        assert store.get(key) is None
        assert not store.path_for(key).exists()

    def test_overwrite_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 0})
        store.put(key, {"seed": 0}, {"v": 1})
        store.put(key, {"seed": 0}, {"v": 2})
        assert store.get(key)["result"] == {"v": 2}
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(key) is None

    def test_records_are_valid_json_files(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = content_key({"seed": 3})
        path = store.put(key, {"seed": 3}, {"v": 1})
        with path.open() as fh:
            record = json.load(fh)
        assert record["schema"] >= 1


class TestQuarantineJournal:
    def test_append_and_read_round_trip(self, tmp_path):
        records = [
            {"key": "abc", "system": "drl-only", "error": "boom"},
            {"key": "def", "system": "packing", "error": "timeout"},
        ]
        for record in records:
            append_quarantine(tmp_path, record)
        lines = (tmp_path / QUARANTINE_FILE).read_text().splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_each_record_is_one_canonical_line(self, tmp_path):
        record = {"system": "packing", "error": "line one\nline two", "key": "k"}
        path = append_quarantine(tmp_path, record)
        assert path == tmp_path / QUARANTINE_FILE
        assert path.read_text() == canonical_json(record) + "\n"

    def test_missing_cache_dir_is_created(self, tmp_path):
        root = tmp_path / "fresh" / "cache"
        path = append_quarantine(root, {"key": "abc"})
        assert path.parent == root
        assert json.loads(path.read_text()) == {"key": "abc"}
