"""R2 fixture: a # guarded-by: declaration naming a field that is gone."""

from __future__ import annotations

import threading


class Registry:
    """A registry whose docstring still declares a deleted field.

    # guarded-by: _lock: _entries, _listeners
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, int] = {}

    def put(self, key: str, value: int) -> None:
        with self._lock:
            self._entries[key] = value
