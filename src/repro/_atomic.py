"""Atomic file replacement, shared by every document the package persists
(the result cache, the tuning cache, the Prometheus exposition)."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path):
    """``with atomic_open(path) as fh``: write ``fh``, then replace ``path``.

    ``fh`` is a text handle on a temporary file in ``path``'s directory,
    moved into place with :func:`os.replace` when the body finishes, so a
    reader sees the old document or the new one, never a torn write.  If
    the body raises, the temporary file is removed and ``path`` is kept.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
