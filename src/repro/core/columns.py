"""Typed column stores — the numeric storage plane under ComponentTable.

The seed stored every component field in a plain python list, which is
pointer-chasing storage: each float is a heap-boxed ``PyFloatObject``,
so a "columnar" scan still hops the heap per value.  This module gives
:class:`~repro.core.table.ComponentTable` real typed buffers for its
numeric fields:

* ``float`` fields (non-nullable) pack into C doubles (``array('d')``);
* ``int`` / ``entity`` fields (non-nullable) pack into C int64s
  (``array('q')``);
* everything else (``str``/``bool``/``blob``/nullable) stays an object
  list, same as before.

Two interchangeable backends sit behind one interface: the stdlib
``array`` module (always available) and an optional numpy backend that
is selected transparently when numpy imports.  Which one is active
never changes observable values — reads always hand back plain python
scalars, so ``state_hash`` and every equality test are bit-identical
across backends.  Force a backend with the ``REPRO_COLUMN_BACKEND``
environment variable (``auto`` | ``numpy`` | ``array`` | ``object``)
or :func:`set_default_backend` in tests.

A typed column also supports **zero-copy views**: :meth:`TypedColumn.view`
returns a read-only ``memoryview`` over the packed buffer, which is what
``ComponentTable.batch_rows(copy=False)`` hands to batch kernels
(slicing a memoryview is O(1) and copies nothing).  Views are *live* —
in-place cell writes show through — but snapshot-stable across row growth: if the buffer must grow while a view
is exported, the column reallocates and the old view keeps the old
buffer alive (copy-on-grow), exactly the snapshot semantics
``column()`` promises.

Values that do not fit the packed representation (an int beyond 64
bits) demote the column to an object list in place; the table keeps
working, it just loses the packed fast path for that field.
"""

from __future__ import annotations

import os
from array import array
from itertools import compress, count
from operator import ne
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import FieldDef

BACKENDS = ("auto", "numpy", "array", "object")

_forced_backend: str | None = None

try:  # the optional accelerated backend
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less host
    _np = None


def set_default_backend(name: str | None) -> None:
    """Force a storage backend (tests); ``None`` restores auto-selection."""
    global _forced_backend
    if name is not None and name not in BACKENDS:
        raise ValueError(f"unknown column backend {name!r}; expected {BACKENDS}")
    _forced_backend = name


def default_backend() -> str:
    """The backend new tables will use: forced > env > auto-detected."""
    name = _forced_backend or os.environ.get("REPRO_COLUMN_BACKEND", "auto")
    if name not in BACKENDS:
        raise ValueError(
            f"REPRO_COLUMN_BACKEND={name!r} invalid; expected one of {BACKENDS}"
        )
    if name == "auto":
        return "numpy" if _np is not None else "array"
    if name == "numpy" and _np is None:
        raise ValueError("REPRO_COLUMN_BACKEND=numpy but numpy is not importable")
    return name


def typecode_for(fdef: "FieldDef") -> str | None:
    """Packed typecode for a field, or None when it must stay an object list.

    Nullable fields store ``None`` and cannot pack; bools are kept as
    objects so identity-ish reads (``is True``) keep working.
    """
    if fdef.nullable:
        return None
    if fdef.type_name == "float":
        return "d"
    if fdef.type_name in ("int", "entity"):
        return "q"
    return None


def make_column(fdef: "FieldDef", backend: str | None = None) -> "list | TypedColumn":
    """Create the storage cell for one field under the active backend."""
    resolved = backend or default_backend()
    if resolved == "object":
        return []
    code = typecode_for(fdef)
    if code is None:
        return []
    if resolved == "numpy":
        return NumpyColumn(code)
    return ArrayColumn(code)


_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _changed(data: Any, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
    """Positions ``i`` where ``data[slots[i]] != values[i]``, in one C-level pass."""
    return list(compress(count(), map(ne, map(data.__getitem__, slots), values)))


def scatter_cells(
    col: "list | TypedColumn", slots: Sequence[int], values: Sequence[Any]
) -> list[int]:
    """:meth:`TypedColumn.scatter` for any column store, plain lists included."""
    if isinstance(col, TypedColumn):
        return col.scatter(slots, values)
    pos = _changed(col, slots, values)
    for i in pos:
        col[slots[i]] = values[i]
    return pos


class TypedColumn:
    """Base typed column: the list protocol ComponentTable mutates through.

    Subclasses implement packed storage; this base carries the shared
    demotion machinery.  After demotion (:attr:`demoted`) the column is
    backed by a plain list and :meth:`view` returns ``None`` — callers
    fall back to materialized reads, values stay correct.
    """

    __slots__ = ("typecode", "_data")

    def __init__(self, typecode: str):
        self.typecode = typecode
        self._data: Any = None  # set by subclass

    # -- demotion -----------------------------------------------------------

    @property
    def demoted(self) -> bool:
        """Whether the column fell back to object-list storage."""
        return isinstance(self._data, list)

    def _demote(self) -> list:
        """Copy packed storage into a plain list, in place."""
        self._data = self.tolist()
        return self._data

    def _fits(self, value: Any) -> bool:
        if self.typecode == "q":
            return _I64_MIN <= value <= _I64_MAX
        return True

    # -- list protocol (shared demoted paths) --------------------------------

    def __len__(self) -> int:
        return len(self._data) if self.demoted else self._packed_len()

    def __getitem__(self, i: int) -> Any:
        if self.demoted:
            return self._data[i]
        return self._packed_get(i)

    def __setitem__(self, i: int, value: Any) -> None:
        if self.demoted:
            self._data[i] = value
        elif self._fits(value):
            self._packed_set(i, value)
        else:
            self._demote()[i] = value

    def append(self, value: Any) -> None:
        if self.demoted:
            self._data.append(value)
        elif self._fits(value):
            self._packed_append(value)
        else:
            self._demote().append(value)

    def pop(self) -> Any:
        if self.demoted:
            return self._data.pop()
        return self._packed_pop()

    def __iter__(self) -> Iterator[Any]:
        if self.demoted:
            return iter(self._data)
        return iter(self.tolist())

    # -- bulk reads ----------------------------------------------------------

    def tolist(self) -> list:
        """All values as plain python scalars."""
        raise NotImplementedError

    def snapshot(self) -> tuple:
        """Immutable copy of the column (the ``column()`` contract)."""
        return tuple(self._data) if self.demoted else tuple(self.tolist())

    def gather(self, slots: Sequence[int]) -> list:
        """Values at the given row slots, as plain scalars."""
        data = self._data
        return [data[s] for s in slots] if self.demoted else self._packed_gather(slots)

    def view(self) -> "memoryview | None":
        """Read-only zero-copy view of the packed buffer (None if demoted)."""
        if self.demoted:
            return None
        return self._packed_view()

    def fill_from(self, values: Iterable[Any]) -> None:
        """Bulk-load initial contents (used when rebinding storage)."""
        for v in values:
            self.append(v)

    # -- bulk writes ---------------------------------------------------------

    def scatter(self, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
        """Write already-validated ``values[i]`` into cell ``slots[i]``, in place.

        The one bulk write the table's ``update_column`` goes through.
        Slots must be distinct.  Only cells whose value differs are
        written, and their positions ``i`` come back in order.  Numpy
        compares and writes with vectorised fancy indexing; ``array`` and
        demoted storage compare in one C-level pass and write in a loop.
        An int that does not fit 64 bits demotes the column before
        anything is written.  The write is in place, so exported views
        observe the new values.
        """
        if not self.demoted:
            try:
                return self._packed_scatter(slots, values)
            except OverflowError:
                self._demote()
        return scatter_cells(self._data, slots, values)

    def replace(self, values: Sequence[Any]) -> None:
        """:meth:`scatter` over every row: the column becomes ``values``."""
        if len(values) != len(self):
            raise ValueError(
                f"replace: {len(values)} values for {len(self)} rows"
            )
        self.scatter(range(len(values)), values)

    # -- subclass hooks ------------------------------------------------------

    def _packed_len(self) -> int:
        raise NotImplementedError

    def _packed_get(self, i: int) -> Any:
        raise NotImplementedError

    def _packed_set(self, i: int, value: Any) -> None:
        raise NotImplementedError

    def _packed_append(self, value: Any) -> None:
        raise NotImplementedError

    def _packed_pop(self) -> Any:
        raise NotImplementedError

    def _packed_gather(self, slots: Sequence[int]) -> list:
        raise NotImplementedError

    def _packed_view(self) -> memoryview:
        raise NotImplementedError

    def _packed_scatter(self, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "demoted" if self.demoted else self.typecode
        return f"{type(self).__name__}({kind}, n={len(self)})"


class ArrayColumn(TypedColumn):
    """Stdlib ``array.array`` backend — always available, no dependencies.

    ``array`` refuses to resize while a memoryview is exported
    (``BufferError``); when that happens mid-append the column swaps in
    a fresh copy of the buffer (copy-on-grow), so outstanding views keep
    the old buffer alive with pre-growth contents.
    """

    __slots__ = ()

    def __init__(self, typecode: str, values: Iterable[Any] = ()):
        super().__init__(typecode)
        self._data = array(typecode, values)

    def _packed_len(self) -> int:
        return len(self._data)

    def _packed_get(self, i: int) -> Any:
        return self._data[i]

    def _packed_set(self, i: int, value: Any) -> None:
        self._data[i] = value

    def _packed_append(self, value: Any) -> None:
        try:
            self._data.append(value)
        except BufferError:  # exported views pin the buffer: copy-on-grow
            self._data = array(self.typecode, self._data)
            self._data.append(value)

    def _packed_pop(self) -> Any:
        try:
            return self._data.pop()
        except BufferError:
            self._data = array(self.typecode, self._data)
            return self._data.pop()

    def _packed_gather(self, slots: Sequence[int]) -> list:
        data = self._data
        return [data[s] for s in slots]

    def _packed_view(self) -> memoryview:
        return memoryview(self._data).toreadonly()

    def _packed_scatter(self, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
        data = self._data
        pos = _changed(data, slots, values)
        # Packing first raises any OverflowError before a cell is written.
        packed = array(self.typecode, [values[i] for i in pos])
        for i, v in zip(pos, packed):
            data[slots[i]] = v
        return pos

    def tolist(self) -> list:
        return self._data.tolist() if not self.demoted else list(self._data)


class NumpyColumn(TypedColumn):
    """Numpy backend: preallocated ndarray with amortized growth.

    Reads return plain python scalars (``.item()`` / ``.tolist()``) so
    hashes and reprs match the stdlib backend exactly; the numpy win is
    in bulk operations (``gather`` via fancy indexing, ``tolist`` in C).
    Growth allocates a new buffer and copies, which leaves any exported
    memoryview attached to the old buffer — same copy-on-grow snapshot
    semantics as :class:`ArrayColumn`.
    """

    __slots__ = ("_n",)

    _DTYPES = {"d": "float64", "q": "int64"}

    def __init__(self, typecode: str, values: Iterable[Any] = ()):
        super().__init__(typecode)
        self._n = 0
        self._data = _np.empty(16, dtype=self._DTYPES[typecode])
        for v in values:
            self.append(v)

    def _packed_len(self) -> int:
        return self._n

    def _norm(self, i: int) -> int:
        return i + self._n if i < 0 else i

    def _packed_get(self, i: int) -> Any:
        i = self._norm(i)
        if i >= self._n:
            raise IndexError("column index out of range")
        return self._data[i].item()

    def _packed_set(self, i: int, value: Any) -> None:
        i = self._norm(i)
        if i >= self._n:
            raise IndexError("column index out of range")
        self._data[i] = value

    def _packed_append(self, value: Any) -> None:
        if self._n == len(self._data):
            grown = _np.empty(max(16, self._n * 2), dtype=self._data.dtype)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n] = value
        self._n += 1

    def _packed_pop(self) -> Any:
        if self._n == 0:
            raise IndexError("pop from empty column")
        self._n -= 1
        return self._data[self._n].item()

    def _packed_gather(self, slots: Sequence[int]) -> list:
        if not slots:
            return []
        return self._data[: self._n].take(list(slots)).tolist()

    def _packed_view(self) -> memoryview:
        return memoryview(self._data[: self._n]).toreadonly()

    def _fits(self, value: Any) -> bool:
        if self.typecode == "q":
            # numpy raises its own OverflowError lazily; check eagerly so
            # demotion happens before any partial write.
            return _I64_MIN <= value <= _I64_MAX
        return True

    def _demote(self) -> list:
        self._data = self._data[: self._n].tolist()
        return self._data

    def _packed_scatter(self, slots: Sequence[int], values: Sequence[Any]) -> list[int]:
        # Converting first raises any OverflowError before a cell is written.
        new = _np.asarray(values, dtype=self._data.dtype)
        idx = _np.asarray(slots, dtype=_np.intp)
        pos = _np.flatnonzero(self._data[idx] != new)
        self._data[idx[pos]] = new[pos]
        return pos.tolist()

    def tolist(self) -> list:
        return list(self._data) if self.demoted else self._data[: self._n].tolist()
