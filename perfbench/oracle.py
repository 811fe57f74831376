"""The benchmark's own model of the live point set.

Every record the benchmark loads or inserts carries a unique integer id
as its value, so an answer is checked by comparing id sets.  Range
answers are checked against a brute-force scan of every live point;
numpy vectorises the scan so a check stays well under a millisecond at
100k points.
"""

from __future__ import annotations

import numpy as np


class LivePoints:
    """Live 2-D points indexed by record id (ids are dense from 0)."""

    def __init__(self, points) -> None:
        count = len(points)
        capacity = max(1024, 2 * count)
        self._x = np.zeros(capacity)
        self._y = np.zeros(capacity)
        self._alive = np.zeros(capacity, dtype=bool)
        if count:
            coords = np.asarray(points, dtype=float)
            self._x[:count] = coords[:, 0]
            self._y[:count] = coords[:, 1]
            self._alive[:count] = True
        self._size = count
        self.live = count

    def _grow(self, needed: int) -> None:
        capacity = len(self._x)
        while capacity < needed:
            capacity *= 2
        for name in ("_x", "_y", "_alive"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def insert(self, ident: int, key) -> None:
        if ident >= len(self._x):
            self._grow(ident + 1)
        if self._alive[ident]:
            raise ValueError(f"record {ident} is already live")
        self._x[ident], self._y[ident] = key
        self._alive[ident] = True
        self._size = max(self._size, ident + 1)
        self.live += 1

    def delete(self, ident: int) -> None:
        if not self._alive[ident]:
            raise ValueError(f"record {ident} is not live")
        self._alive[ident] = False
        self.live -= 1

    def range_ids(self, lows, highs) -> list[int]:
        """Ids of live points inside the closed box, ascending."""
        n = self._size
        x = self._x[:n]
        y = self._y[:n]
        mask = (
            self._alive[:n]
            & (x >= lows[0]) & (x <= highs[0])
            & (y >= lows[1]) & (y <= highs[1])
        )
        return np.flatnonzero(mask).tolist()
