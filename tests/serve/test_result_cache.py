"""The LRU byte-budgeted result store and its atomic persistence."""

import json
import threading

import pytest

from repro.errors import ConfigError
from repro.serve import RESULTS_SCHEMA, ResultCache, ServeWarning, payload_nbytes


def _payload(tag, pad=0):
    return {"op": "extract", "tag": tag, "pad": "x" * pad}


def test_get_put_round_trip():
    cache = ResultCache()
    assert cache.get("k") is None
    assert cache.put("k", _payload("a"))
    assert cache.get("k") == _payload("a")
    assert cache.hits == 1 and cache.misses == 1


def test_put_replaces_and_recharges():
    cache = ResultCache()
    cache.put("k", _payload("a", pad=100))
    big = cache.total_bytes
    cache.put("k", _payload("a"))
    assert len(cache) == 1
    assert cache.total_bytes == payload_nbytes(_payload("a")) < big


def test_lru_eviction_respects_the_byte_budget():
    one = payload_nbytes(_payload("a"))
    cache = ResultCache(max_bytes=3 * one)
    for tag in "abc":
        cache.put(tag, _payload(tag))
    assert cache.total_bytes <= cache.max_bytes
    # touch "a" so "b" is now the coldest entry
    cache.get("a")
    cache.put("d", _payload("d"))
    assert cache.total_bytes <= cache.max_bytes
    assert "b" not in cache and "a" in cache and "d" in cache
    assert cache.evictions == 1


def test_oversized_payload_is_refused_not_flushing_everything():
    cache = ResultCache(max_bytes=200)
    cache.put("small", _payload("s"))
    assert not cache.put("huge", _payload("h", pad=10_000))
    assert "huge" not in cache and "small" in cache
    assert cache.evictions == 0


def test_negative_budget_is_rejected():
    with pytest.raises(ConfigError):
        ResultCache(max_bytes=-1)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k1", _payload("a"))
        cache.put("k2", _payload("b"))
        cache.save(path)
        loaded = ResultCache.load(path)
        assert loaded.keys() == ["k1", "k2"]
        assert loaded.get("k1") == _payload("a")
        assert loaded.max_bytes == 1 << 20
        # load is bookkeeping, not traffic
        assert loaded.misses == 0

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache()
        cache.put("k", _payload("a"))
        cache.save(path)
        cache.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    def test_loaded_budget_override_trims_coldest_first(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache()
        for tag in "abcd":
            cache.put(tag, _payload(tag))
        cache.save(path)
        one = payload_nbytes(_payload("a"))
        trimmed = ResultCache.load(path, max_bytes=2 * one)
        assert trimmed.keys() == ["c", "d"]
        assert trimmed.total_bytes <= trimmed.max_bytes

    def test_load_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"schema": "repro.serve/results/v999", "entries": {}}))
        with pytest.raises(ConfigError):
            ResultCache.load(path)

    def test_a_v1_document_starts_cold(self, tmp_path):
        # v1 keys carried the prepared-graph fingerprint, which no request
        # computes any more: the daemon must not load entries it cannot reach
        path = tmp_path / "results.json"
        key = "extract:v2:n=3:nnz=4:deg=0.2.1:w=0123456789ab:in=ba9876543210:cfg=001122334455"
        path.write_text(json.dumps(
            {"schema": "repro.serve/results/v1", "entries": {key: _payload("a")}}
        ))
        with pytest.warns(ServeWarning, match="'repro.serve/results/v1' does not match"):
            cache = ResultCache.load_or_empty(path)
        assert len(cache) == 0

    def test_load_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ResultCache.load(path)

    def test_load_or_empty_is_silent_on_first_boot(self, tmp_path, recwarn):
        cache = ResultCache.load_or_empty(tmp_path / "missing.json", max_bytes=10)
        assert len(cache) == 0 and cache.max_bytes == 10
        assert not [w for w in recwarn.list if issubclass(w.category, ServeWarning)]

    def test_load_or_empty_warns_and_starts_cold_on_corruption(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        with pytest.warns(ServeWarning, match="starting cold"):
            cache = ResultCache.load_or_empty(path)
        assert len(cache) == 0

    def test_document_carries_the_schema_tag(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache()
        cache.put("k", _payload("a"))
        cache.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == RESULTS_SCHEMA

    def test_concurrent_saves_never_tear_the_document(self, tmp_path):
        # the atomic temp-file + os.replace discipline: a reader always sees
        # a complete document, whichever writer wins
        path = tmp_path / "results.json"
        caches = []
        for i in range(4):
            c = ResultCache()
            c.put(f"k{i}", _payload(str(i), pad=2000))
            caches.append(c)
        threads = [
            threading.Thread(target=c.save, args=(path,)) for c in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loaded = ResultCache.load(path)
        assert len(loaded) == 1
