"""Every persisted document survives a failed rewrite byte for byte.

The result cache, the tuning cache and the Prometheus exposition all write
through :func:`repro._atomic.atomic_open`.  A write that dies part-way (a
full disk here) must leave the previous file untouched and no staging file
behind.
"""

import errno
import os

import pytest

from repro.obs import Aggregator, write_prometheus
from repro.serve import ResultCache
from repro.tune import TuningCache


def _save_results(path):
    cache = ResultCache()
    cache.put("extract:k", {"op": "extract", "coverage": 0.5})
    cache.save(path)


def _save_tuning(path):
    TuningCache().save(path)


def _save_prometheus(path):
    write_prometheus(Aggregator().snapshot(), path)


class _DiskFull:
    """A file handle whose first write lands half its text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "save", [_save_results, _save_tuning, _save_prometheus],
    ids=["result-cache", "tuning-cache", "prometheus"],
)
def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, save):
    path = tmp_path / "document"
    save(path)
    before = path.read_bytes()
    assert before

    real_fdopen = os.fdopen

    def disk_full(fd, *args, **kwargs):
        return _DiskFull(real_fdopen(fd, *args, **kwargs))

    monkeypatch.setattr(os, "fdopen", disk_full)
    with pytest.raises(OSError, match="No space left"):
        save(path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
