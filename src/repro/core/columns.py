"""Column storage under ComponentTable: every field is a plain list.

A :class:`~repro.core.table.ComponentTable` keeps one python ``list`` per
component field, slot-parallel to its entity-id list.  Row ops index the
list directly, and the set-at-a-time paths (``gather``, ``batch_rows``,
``write_column``) are single C-level passes over it: the paper's
storage claim is set-at-a-time processing, not packed buffers.

Every read that hands a column out returns a tuple or a private copy,
never the live list, so a caller can neither write through it nor see
later writes.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import Any, Sequence


def default_backend() -> str:
    """The column store's name, stamped into benchmark reports."""
    return "list"


def scatter_cells(col: list, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
    """Write already-validated ``values[i]`` into ``col[slots[i]]``, in place.

    Slots must be distinct.  Only cells whose value differs are written
    (one C-level compare pass, then a write loop), and their positions
    ``i`` come back in order.
    """
    pos = list(compress(count(), map(ne, map(col.__getitem__, slots), values)))
    for i in pos:
        col[slots[i]] = values[i]
    return pos
