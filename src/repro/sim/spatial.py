"""Uniform-grid spatial index for range queries over node positions.

The wireless channel repeatedly asks "which nodes are within ``r`` metres of
this point?" — for reception sets on every transmission and (indirectly) for
the oracle protocol's neighbour graph.  A brute-force answer scans every node,
making route-discovery flooding O(N²) per broadcast.  :class:`SpatialGrid`
hashes points into square cells of side ``cell_size`` (the channel uses the
reception range) so a radius query only inspects the cells overlapping the
query disk's bounding square: O(occupied cells + matches) instead of O(N).

The grid is a snapshot: it indexes the positions given to :meth:`build` /
:meth:`insert` and knows nothing about mobility.  Callers that query a grid
built at an earlier time must inflate the radius by the maximum distance any
node can have travelled since the snapshot and re-filter candidates against
exact current positions — this is how :class:`~repro.sim.channel.Channel`
amortises the O(N) rebuild over many queries without changing any query
result.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

__all__ = ["SpatialGrid"]

Key = Hashable


class SpatialGrid:
    """A uniform grid over 2-D points supporting disk range queries.

    Cells are addressed by ``(floor(x / cell_size), floor(y / cell_size))``;
    only occupied cells are stored, so memory is O(points) regardless of the
    terrain extent and negative coordinates work naturally.
    """

    __slots__ = ("cell_size", "_cells")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        # cell -> list of (key, x, y) entries
        self._cells: Dict[Tuple[int, int], List[Tuple[Key, float, float]]] = {}

    # -- construction ------------------------------------------------------------

    def clear(self) -> None:
        """Remove every indexed point."""
        self._cells.clear()

    def insert(self, key: Key, x: float, y: float) -> None:
        """Index one point under ``key``.  Duplicate keys are not detected."""
        cs = self.cell_size
        cell = (int(x // cs), int(y // cs))
        bucket = self._cells.get(cell)
        if bucket is None:
            self._cells[cell] = [(key, x, y)]
        else:
            bucket.append((key, x, y))

    def build(self, items: Iterable[Tuple[Key, float, float]]) -> None:
        """Replace the index contents with ``(key, x, y)`` triples."""
        self.clear()
        for key, x, y in items:
            self.insert(key, x, y)

    # -- queries -----------------------------------------------------------------

    def candidate_buckets(
        self, pos: Tuple[float, float], radius: float
    ) -> List[List[Tuple[Key, float, float]]]:
        """The occupied cell buckets overlapping the query disk's bounding
        square: their points are a superset of those within ``radius`` of
        ``pos``, and the caller filters them.

        The channel's reception-set query iterates candidates once per
        transmission; handing it the internal bucket lists (contract:
        read-only) skips one list build + append per candidate on the
        hottest geometry path.  Fewer occupied cells than cells in the
        query square: scan the occupied ones directly (keeps huge radii
        from iterating a huge but empty lattice).
        """
        if radius < 0:
            return []
        cs = self.cell_size
        x, y = pos
        cx_lo = int((x - radius) // cs)
        cx_hi = int((x + radius) // cs)
        cy_lo = int((y - radius) // cs)
        cy_hi = int((y + radius) // cs)
        cells = self._cells
        if len(cells) <= (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1):
            return [
                bucket
                for (cx, cy), bucket in cells.items()
                if cx_lo <= cx <= cx_hi and cy_lo <= cy <= cy_hi
            ]
        buckets: List[List[Tuple[Key, float, float]]] = []
        cells_get = cells.get
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = cells_get((cx, cy))
                if bucket is not None:
                    buckets.append(bucket)
        return buckets
