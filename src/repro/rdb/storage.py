"""Row storage with one kind of index, on shared pages.

Each table's rows are keyed by a synthetic row id.  An index
(:class:`_Index`) is one hash from the key of its ``columns`` to the
rows holding it, with three properties:

* **unique or grouped** — an entry is the one row id (primary key,
  UNIQUE constraints, ``CREATE UNIQUE INDEX``; a duplicate raises
  :class:`IntegrityError` under the constraint's label) or the immutable
  ascending group of row ids (foreign-key columns, referenced columns,
  ``CREATE INDEX``);
* **ordered or not** — a single-column declared index additionally
  keeps its distinct values sorted, so range, prefix and ORDER BY access
  paths walk them in key order, reading each value's rows from that
  same hash;
* **one keying rule** (:meth:`_Index.key_for`) — the value itself for
  one column, the tuple of values for several; a key with a NULL
  component is not stored.  A primary key over ``id`` therefore holds
  ints, not one 1-tuple per row (an allocation per insert and an object
  for the garbage collector to visit per row, which a bulk load feels);
  :class:`TableData`'s lookup surface takes a tuple of values whatever
  the width, because that is what its callers hold.

:class:`TableData` holds them in one collection, ``indexes``, at most one
per column tuple — a unique index also answers what a grouped one over
the same columns would.  *Which* indexes exist is not decided here:
:meth:`TableData.sync_indexes` makes the set equal to what the catalog
requires (:meth:`repro.rdb.catalog.Table.required_indexes`) and is the
only place an index is built.  Nothing on a read path builds or scans:
:meth:`TableData.probe` and :meth:`TableData.has_key` answer from the
index over exactly the columns asked for, and asking for columns
nothing indexes is a ``KeyError``, not a slower answer.  All mutation
goes through :class:`TableData` methods so indexes never drift from the
rows.

Statistics (row counts, per-column distinct counts) are *derived* from the
incrementally maintained index structures, so they are O(1) to read and
O(changes) to maintain — no DML ever recounts a table.

Pages (MVCC reads, copy-on-write)
---------------------------------

Rows and both halves of an index live in one persistent container,
:class:`_Pages`: a *directory* (a list) of *pages* (dicts or lists of at
most ``PAGE_SIZE`` entries), each page stamped with the token of the one
container version that may mutate it in place.  Three addressings share
that mechanism: :class:`_RowPages` (page ``rowid >> PAGE_BITS``, so scan
order is row-id order), :class:`_HashPages` (extendible hashing: the
directory doubles, a full bucket splits alone) and :class:`_SortedPages`
(sorted keys in chunks).

:meth:`TableData.clone` copies the directories only — O(rows /
``PAGE_SIZE``) pointers — and both versions then share every page.  A
write copies the pages it touches on first touch (at most ``PAGE_SIZE``
entries each) and mutates pages it already owns in place, so a version
that is never cloned (bulk load, write-only loops) never copies.
Dropping a version frees its directories and the pages it alone holds.
Rows are immutable tuples in catalog column order (``update`` stores a
new tuple; a reader holding a row can never see it change, so nothing
copies a row to protect it) and per-value row-id groups
(:class:`_RowIds`) are immutable and chunked, so a page copy is a copy
of pointers and adding one id to a 10 000-id group copies one chunk and
the group's chunk directory.

The engine publishes the pre-clone object inside an immutable snapshot
for lock-free readers and hands the clone to the writer: once a
``TableData`` is reachable from a published snapshot it is never mutated
again.

Directories never shrink: a table that shrank keeps the directory of its
largest size (row pages emptied by deletes are released, their slots
stay).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import DatabaseError, IntegrityError
from .catalog import Table
from .types import Row

__all__ = ["TableData"]

#: Entries per page: the unit of sharing between table versions.  A clone
#: copies rows/PAGE_SIZE directory pointers per structure, a write copies
#: at most PAGE_SIZE entries per structure it touches.
PAGE_BITS = 7
PAGE_SIZE = 1 << PAGE_BITS

_FIRST = itemgetter(0)


def _chunk_of(chunks: Any, key: Any) -> int:
    """Index of the chunk ``key`` belongs in: the last of the non-empty
    sorted ``chunks`` that starts at or before it (the first otherwise)."""
    return max(bisect_right(chunks, key, key=_FIRST) - 1, 0)


class _DictPage(dict):
    """A page of key -> value entries.  ``owner`` is the token of the
    container version allowed to mutate it in place; ``depth`` is the
    number of hash bits a :class:`_HashPages` bucket is addressed by."""

    __slots__ = ("owner", "depth")


class _ListPage(list):
    """A page of sorted keys (see :class:`_DictPage` for ``owner``)."""

    __slots__ = ("owner",)


class _Pages:
    """A persistent paged container: a directory of pages shared between
    versions until written.

    Subclasses decide which page an entry lives on; this class decides
    who may write a page.  A version mutates in place only pages stamped
    with its own ``token``; any other page is copied first (:meth:`_own`)
    and the copy installed in this version's directory.  ``copied``
    counts the entries those copies moved, so tests can assert that a
    write after :meth:`clone` costs the same at every table size.
    """

    __slots__ = ("dir", "token", "copied")

    def __init__(self) -> None:
        self.dir: List[Any] = []
        self.token = object()
        self.copied = 0

    def clone(self) -> "_Pages":
        """A second version sharing every page: a copy of the directory.
        Neither version owns a page afterwards — each copies on its next
        write — so either may be the one that is kept frozen."""
        twin = type(self).__new__(type(self))
        twin.dir = self.dir.copy()
        twin.token = object()
        twin.copied = 0
        self.token = object()
        return twin

    def _own(self, page: Any) -> Any:
        """A copy of a shared ``page`` that this version may mutate."""
        twin = type(page)(page)
        twin.owner = self.token
        self.copied += len(page)
        return twin


#: Stands in for row pages that hold nothing (never owned, so never
#: mutated): directory slots beyond the last insert or emptied by deletes.
_NO_ROWS = _DictPage()
_NO_ROWS.owner = None


class _RowPages(_Pages):
    """Row id -> row tuple; page ``n`` holds the ids ``n << PAGE_BITS``
    up to the next page's first, in ascending order.

    Iteration chains the pages, so scan order is row-id order — the
    invariant ordered-index tie emission relies on.  The mapping surface
    (``[]``, ``get``, ``in``, ``len``, ``items``/``values``) is what the
    executor, the planner and the mediator read rows through.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def clone(self) -> "_RowPages":
        twin = super().clone()
        twin.count = self.count
        return twin

    def __getitem__(self, rowid: int) -> Row:
        try:
            return self.dir[rowid >> PAGE_BITS][rowid]
        except IndexError:
            raise KeyError(rowid) from None

    def get(self, rowid: int, default: Any = None) -> Any:
        try:
            return self.dir[rowid >> PAGE_BITS].get(rowid, default)
        except IndexError:
            return default

    def __contains__(self, rowid: int) -> bool:
        return self.get(rowid) is not None

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.dir)

    def items(self) -> Iterator[Tuple[int, Row]]:
        return chain.from_iterable(map(dict.items, self.dir))

    def values(self) -> Iterator[Row]:
        return chain.from_iterable(map(dict.values, self.dir))

    def _page(self, rowid: int) -> _DictPage:
        """The page ``rowid`` lives on, owned by this version."""
        n = rowid >> PAGE_BITS
        directory = self.dir
        if n >= len(directory):
            directory.extend([_NO_ROWS] * (n + 1 - len(directory)))
        page = directory[n]
        if page.owner is not self.token:
            page = directory[n] = self._own(page)
        return page

    def __setitem__(self, rowid: int, row: Row) -> None:
        """Store a row under a new highest id, or replace a stored one."""
        n = rowid >> PAGE_BITS
        directory = self.dir
        if n >= len(directory):
            directory.extend([_NO_ROWS] * (n + 1 - len(directory)))
        page = directory[n]
        if page.owner is not self.token:  # _page(), minus a call per row
            page = directory[n] = self._own(page)
        if rowid not in page:
            self.count += 1
        page[rowid] = row

    def reinstate(self, rowid: int, row: Row) -> None:
        """Store a row under an id that may lie below stored ones (undo
        of a delete, replay): its page is re-ordered, so iteration stays
        in ascending id order."""
        page = self._page(rowid)
        in_order = not page or rowid > next(reversed(page))
        self[rowid] = row
        if not in_order:
            ordered = sorted(page.items())
            page.clear()
            page.update(ordered)

    def pop(self, rowid: int) -> Row:
        if rowid not in self:
            raise KeyError(rowid)
        page = self._page(rowid)
        row = page.pop(rowid)
        self.count -= 1
        if not page:
            self.dir[rowid >> PAGE_BITS] = _NO_ROWS
        return row


#: Row ids per chunk of a group.  Every id added to a group rebuilds one
#: chunk, so chunks stay much smaller than pages: 32 ids keep the rebuilt
#: tuple inside the allocator's small-object classes (measured on the
#: bulk load: 16 / 32 / 56 / 128 ids cost 1.40 / 1.29 / 1.47 / 1.66 us
#: per row over plain dicts and sets).
_IDS_CHUNK = 32


class _RowIds:
    """An immutable ascending group of more than ``_IDS_CHUNK`` row ids
    (a smaller group is a plain tuple; see :func:`_ids_with`).

    The ids are ``chunks`` — a tuple of non-empty id tuples of at most
    ``_IDS_CHUNK`` each — followed by the non-empty ``tail``, the last
    such chunk, held apart so that appending a new highest id (what a
    load of ascending row ids does) rebuilds the tail alone.  Any other
    :meth:`with_id`/:meth:`without_id` rebuilds one chunk and the chunk
    directory; every other chunk is shared with the group it was called
    on.
    """

    __slots__ = ("chunks", "tail", "size")

    def __init__(
        self,
        chunks: Tuple[Tuple[int, ...], ...],
        tail: Tuple[int, ...],
        size: int,
    ) -> None:
        self.chunks = chunks
        self.tail = tail
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return chain(chain.from_iterable(self.chunks), self.tail)

    def _rebuilt(self, n: int, pieces: Tuple[Tuple[int, ...], ...], size: int) -> Any:
        """The group with chunk ``n`` (the tail counting as the last
        chunk) replaced by ``pieces``; a plain tuple when one chunk is
        all that is left."""
        chunks = self.chunks + (self.tail,)
        chunks = chunks[:n] + pieces + chunks[n + 1:]
        if len(chunks) == 1:
            return chunks[0]
        return _RowIds(chunks[:-1], chunks[-1], size)

    def with_id(self, rowid: int) -> "_RowIds":
        tail = self.tail
        if rowid > tail[-1]:
            if len(tail) < _IDS_CHUNK:
                return _RowIds(self.chunks, tail + (rowid,), self.size + 1)
            return _RowIds(self.chunks + (tail,), (rowid,), self.size + 1)
        n, chunk = len(self.chunks), tail
        if rowid < chunk[0] and n:
            n = _chunk_of(self.chunks, rowid)
            chunk = self.chunks[n]
        at = bisect_left(chunk, rowid)
        if at < len(chunk) and chunk[at] == rowid:
            return self
        chunk = chunk[:at] + (rowid,) + chunk[at:]
        if len(chunk) > _IDS_CHUNK:
            half = len(chunk) >> 1
            return self._rebuilt(n, (chunk[:half], chunk[half:]), self.size + 1)
        return self._rebuilt(n, (chunk,), self.size + 1)

    def without_id(self, rowid: int) -> Any:
        n, chunk = len(self.chunks), self.tail
        if rowid < chunk[0] and n:
            n = _chunk_of(self.chunks, rowid)
            chunk = self.chunks[n]
        at = bisect_left(chunk, rowid)
        if at == len(chunk) or chunk[at] != rowid:
            return self
        chunk = chunk[:at] + chunk[at + 1:]
        return self._rebuilt(n, (chunk,) if chunk else (), self.size - 1)


def _ids_with(group: Any, rowid: int) -> Any:
    """``group`` plus ``rowid``.  A group is an ascending tuple of row
    ids up to ``_IDS_CHUNK``, a :class:`_RowIds` above; either way
    immutable, sized and iterated in ascending order."""
    if type(group) is not tuple:
        return group.with_id(rowid)
    if len(group) >= _IDS_CHUNK:
        return _RowIds((), group, len(group)).with_id(rowid)
    if rowid > group[-1]:
        return group + (rowid,)
    at = bisect_left(group, rowid)
    if group[at] == rowid:
        return group
    return group[:at] + (rowid,) + group[at:]


def _ids_without(group: Any, rowid: int) -> Any:
    """``group`` minus ``rowid``; None when that was its last id."""
    if type(group) is not tuple:
        return group.without_id(rowid)
    at = bisect_left(group, rowid)
    if at == len(group) or group[at] != rowid:
        return group
    return (group[:at] + group[at + 1:]) or None


class _HashPages(_Pages):
    """Key -> value by extendible hashing.

    The directory has ``mask + 1`` slots (a power of two); a key lives in
    the bucket at slot ``hash(key) & mask``.  A bucket addressed by fewer
    bits than the directory (``depth``) is referenced from every slot
    that agrees on those bits.  A full bucket splits on its next hash bit
    — alone; when it already uses every directory bit the directory
    doubles first, which copies pointers, not entries.
    """

    __slots__ = ("mask", "count")

    def __init__(self) -> None:
        super().__init__()
        bucket = _DictPage()
        bucket.owner = self.token
        bucket.depth = 0
        self.dir.append(bucket)
        self.mask = 0
        self.count = 0

    def clone(self) -> "_HashPages":
        twin = super().clone()
        twin.mask = self.mask
        twin.count = self.count
        return twin

    def get(self, key: Any, default: Any = None) -> Any:
        return self.dir[hash(key) & self.mask].get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self.dir[hash(key) & self.mask]

    def __len__(self) -> int:
        return self.count

    def _repoint(self, h: int, depth: int, low: _DictPage, high: _DictPage) -> None:
        """Point every slot agreeing with ``h`` on its ``depth`` low bits
        at ``low`` or — where bit ``depth`` is set — at ``high``."""
        directory = self.dir
        bit = 1 << depth
        for slot in range(h & (bit - 1), len(directory), bit):
            directory[slot] = high if slot & bit else low

    def _own_bucket(self, bucket: _DictPage, h: int) -> _DictPage:
        """Replace the shared ``bucket`` for hash ``h`` by an owned copy."""
        depth = bucket.depth
        bucket = self._own(bucket)
        bucket.depth = depth
        self._repoint(h, depth, bucket, bucket)
        return bucket

    def _split(self, bucket: _DictPage, h: int) -> _DictPage:
        """Make room in a full, owned ``bucket`` by splitting it on its
        next hash bit; returns the bucket a key with hash ``h`` now
        belongs in."""
        depth = bucket.depth
        bit = 1 << depth
        if bit > self.mask:
            # The split needs the directory doubled.  Refused while the
            # directory is already sparse (keys agreeing on many hash
            # bits would double it without end): the bucket just grows.
            if (self.mask + 1) * (PAGE_SIZE >> 3) > self.count:
                return bucket
            self.dir += self.dir
            self.mask = len(self.dir) - 1
        low, high = _DictPage(), _DictPage()
        low.owner = high.owner = self.token
        low.depth = high.depth = depth + 1
        for key, value in bucket.items():
            (high if hash(key) & bit else low)[key] = value
        self._repoint(h, depth, low, high)
        return high if h & bit else low

    def setdefault(self, key: Any, value: Any) -> Any:
        """The value stored under ``key``, storing ``value`` when there
        is none."""
        h = hash(key)
        bucket = self.dir[h & self.mask]
        if bucket.owner is not self.token:
            if key in bucket:
                return bucket[key]
            bucket = self._own_bucket(bucket, h)
        size = len(bucket)
        existing = bucket.setdefault(key, value)
        if len(bucket) != size:
            self.count += 1
            if size >= PAGE_SIZE:
                self._split(bucket, h)
        return existing

    def pop(self, key: Any) -> Any:
        h = hash(key)
        bucket = self.dir[h & self.mask]
        if key not in bucket:
            raise KeyError(key)
        if bucket.owner is not self.token:
            bucket = self._own_bucket(bucket, h)
        self.count -= 1
        return bucket.pop(key)

    # -- values that are row-id groups (see _ids_with) -------------------------

    def add_id(self, key: Any, rowid: int) -> bool:
        """Add ``rowid`` to ``key``'s group; True when the key is new."""
        h = hash(key)
        bucket = self.dir[h & self.mask]
        if bucket.owner is not self.token:
            bucket = self._own_bucket(bucket, h)
        group = bucket.get(key)
        if group is None:
            self.count += 1
            if len(bucket) >= PAGE_SIZE:
                bucket = self._split(bucket, h)
            bucket[key] = (rowid,)
            return True
        # a new highest id (every bulk-loaded row): _ids_with, minus calls
        if type(group) is tuple:
            if rowid > group[-1] and len(group) < _IDS_CHUNK:
                bucket[key] = group + (rowid,)
                return False
        elif rowid > group.tail[-1] and len(group.tail) < _IDS_CHUNK:
            bucket[key] = _RowIds(
                group.chunks, group.tail + (rowid,), group.size + 1
            )
            return False
        bucket[key] = _ids_with(group, rowid)
        return False

    def discard_id(self, key: Any, rowid: int) -> bool:
        """Remove ``rowid`` from ``key``'s group; True when the key went
        with its last id."""
        h = hash(key)
        bucket = self.dir[h & self.mask]
        group = bucket.get(key)
        if group is None:
            return False
        rest = _ids_without(group, rowid)
        if rest is group:
            return False
        if bucket.owner is not self.token:
            bucket = self._own_bucket(bucket, h)
        if rest is None:
            del bucket[key]
            self.count -= 1
            return True
        bucket[key] = rest
        return False


class _SortedPages(_Pages):
    """Distinct keys in ascending order, in chunks of at most
    ``PAGE_SIZE``; no chunk is empty, so a chunk's first key locates it.

    A *position* is a ``(chunk, offset)`` pair; :meth:`keys` walks the
    keys between two positions.
    """

    __slots__ = ()

    def _chunk(self, n: int) -> _ListPage:
        chunk = self.dir[n]
        if chunk.owner is not self.token:
            chunk = self.dir[n] = self._own(chunk)
        return chunk

    def _new_chunk(self, keys: List[Any]) -> _ListPage:
        chunk = _ListPage(keys)
        chunk.owner = self.token
        return chunk

    def add(self, key: Any) -> None:
        """Insert ``key`` (which must not be present)."""
        directory = self.dir
        if not directory:
            directory.append(self._new_chunk([key]))
            return
        n = _chunk_of(self.dir, key)
        if len(directory[n]) >= PAGE_SIZE:
            if n == len(directory) - 1 and key > directory[n][-1]:
                # Ascending load: start a new chunk, leave this one full.
                directory.append(self._new_chunk([key]))
                return
            chunk = self._chunk(n)
            half = len(chunk) >> 1
            directory.insert(n + 1, self._new_chunk(chunk[half:]))
            del chunk[half:]
            if key >= directory[n + 1][0]:
                n += 1
        insort(self._chunk(n), key)

    def remove(self, key: Any) -> None:
        """Remove ``key`` (which must be present)."""
        n = _chunk_of(self.dir, key)
        if len(self.dir[n]) == 1:
            del self.dir[n]
            return
        chunk = self._chunk(n)
        del chunk[bisect_left(chunk, key)]

    def first(self) -> Any:
        """The smallest key, or None when empty."""
        return self.dir[0][0] if self.dir else None

    def position(self, key: Any, after: bool) -> Tuple[int, int]:
        """Where ``key`` would sort: before its equal when ``after`` is
        false, after it otherwise."""
        if not self.dir:
            return (0, 0)
        n = _chunk_of(self.dir, key)
        chunk = self.dir[n]
        return (n, bisect_right(chunk, key) if after else bisect_left(chunk, key))

    def keys(
        self,
        start: Tuple[int, int] = (0, 0),
        end: Optional[Tuple[int, int]] = None,
        descending: bool = False,
    ) -> Iterator[Any]:
        """The keys from position ``start`` up to ``end`` (default: the
        last key), ascending or descending."""
        directory = self.dir
        first, offset = start
        last, stop = end if end is not None else (len(directory), 0)
        spans = []
        for n in range(first, min(last + 1, len(directory))):
            chunk = directory[n]
            lo = offset if n == first else 0
            hi = stop if n == last else len(chunk)
            if lo < hi:
                spans.append(chunk if hi - lo == len(chunk) else chunk[lo:hi])
        if descending:
            return chain.from_iterable(map(reversed, reversed(spans)))
        return chain.from_iterable(spans)


_SECOND = itemgetter(1)

#: Sentinel for "no bound" in range probes (None means SQL NULL there).
UNBOUNDED = object()


def _ordered_key(value: Any) -> Tuple[int, Any]:
    """Sort key for ordered-index entries.

    Rank 0 holds everything numeric (bools compare as ints, matching the
    expression layer's ``_comparable``/``_compare_eq`` semantics), rank 1
    holds strings.  Values of one column always share a rank because the
    type system coerces on insert.

    CONTRACT: the total order this key induces must equal the ORDER BY
    order of :func:`repro.rdb.planner._null_safe_key` on non-NULL values
    — the index-ordered access path substitutes one for the other.  A new
    value representation must be added to both (a unit test asserts the
    orders agree).
    """
    if isinstance(value, (int, float)):  # bool is an int subclass
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    raise DatabaseError(
        f"cannot index value of type {type(value).__name__}"
    )


class _Index:
    """The one kind of index: ``entries`` hashes the key of ``columns``
    (:meth:`key_for`, which reads the columns' positions in the row) to
    the rows holding it.

    *Unique* (``label`` names the constraint) — an entry is the one row
    id; a second row with the key is an :class:`IntegrityError`.
    *Grouped* (``label`` is None) — an entry is the immutable ascending
    group of row ids (see :func:`_ids_with`).  Either way a key with a
    NULL component is not stored: NULLs never collide under UNIQUE, a
    NULL foreign-key component never violates, and no equality selects
    them.

    *Ordered* (``keys`` is not None; one column only) — the distinct
    values are additionally kept sorted, as ``_ordered_key(value)``,
    which backs range scans (``<``/``<=``/``>``/``>=``/``BETWEEN``),
    prefix scans (``LIKE 'abc%'``) and index-ordered scans (ORDER BY
    without a sort).  The walks read each key's rows from ``entries``,
    the hash equality probes use.  Row ids within one group ascend, so
    index-ordered emission matches what a stable sort over the
    row-id-ordered scan would produce — ties included.  The rows holding
    NULL are tracked apart (``nulls``) so ordered scans can emit them
    where ORDER BY puts them (first ascending, last descending).
    """

    __slots__ = ("table", "columns", "read", "label", "entries", "keys", "nulls")

    def __init__(
        self,
        table: Table,
        columns: Tuple[str, ...],
        label: Optional[str],
        ordered: bool,
    ) -> None:
        self.table = table.name
        self.columns = columns
        #: The row's key: ``itemgetter`` over the columns' positions
        #: returns the value itself for one, the tuple for several.
        self.read = itemgetter(*[table.positions[column] for column in columns])
        self.label = label  # 'primary key' | 'unique' | 'unique index' | None
        self.entries = _HashPages()
        self.keys = _SortedPages() if ordered else None
        self.nulls: Any = None  # group of row ids with NULL in an ordered column

    def clone(self) -> "_Index":
        twin = _Index.__new__(_Index)
        twin.table = self.table
        twin.columns = self.columns
        twin.read = self.read
        twin.label = self.label
        twin.entries = self.entries.clone()
        twin.keys = None if self.keys is None else self.keys.clone()
        twin.nulls = self.nulls
        return twin

    def key_for(self, row: Row) -> Any:
        """The row's key — the value itself for one column, the tuple of
        values for several — or None when any component is NULL."""
        key = self.read(row)
        if len(self.columns) > 1 and None in key:
            return None
        return key

    def insert(self, row: Row, rowid: int) -> None:
        columns = self.columns  # key_for, minus a call per row and index
        key = self.read(row) if len(columns) == 1 else self.key_for(row)
        keys = self.keys
        if key is None:
            if keys is not None:
                nulls = self.nulls
                self.nulls = (rowid,) if nulls is None else _ids_with(nulls, rowid)
            return
        if keys is not None:
            sort_key = _ordered_key(key)  # raises before anything is stored
        entries = self.entries
        if self.label is None:
            new = entries.add_id(key, rowid)
        else:
            count = entries.count
            if entries.setdefault(key, rowid) != rowid:
                raise IntegrityError(
                    f"{self.label} violation in table {self.table!r}: "
                    f"duplicate value {key!r} for ({', '.join(self.columns)})",
                    constraint=self.label,
                    table=self.table,
                    column=columns[0],
                )
            new = entries.count != count
        if new and keys is not None:
            keys.add(sort_key)

    def remove(self, row: Row, rowid: int) -> None:
        """Take ``rowid`` out from under the row's key; a no-op when it
        is not stored there (so a failed insert can be taken back from
        every index, reached or not)."""
        key = self.key_for(row)
        if key is None:
            if self.nulls is not None:
                self.nulls = _ids_without(self.nulls, rowid)
            return
        entries = self.entries
        if self.label is None:
            gone = entries.discard_id(key, rowid)
        else:
            gone = entries.get(key) == rowid
            if gone:
                entries.pop(key)
        if gone and self.keys is not None:
            self.keys.remove(_ordered_key(key))

    def rowids(self, key: Any) -> Any:
        """The row ids holding ``key`` (in :meth:`key_for`'s form): a
        sized, immutable collection iterated in ascending order (a
        grouped index's stored group itself — no per-call copy)."""
        found = self.entries.get(key)
        if found is None:
            return ()
        return found if self.label is None else (found,)

    # -- ordered walks -----------------------------------------------------------

    def _check_comparable(self, bound: Any) -> Tuple[int, Any]:
        """The bound's key; raises exactly like the expression layer when
        the bound's type class cannot compare with the stored values."""
        key = _ordered_key(bound)
        sample = self.keys.first()
        if sample is not None and sample[0] != key[0]:
            raise DatabaseError(
                f"cannot compare {type(sample[1]).__name__} with "
                f"{type(bound).__name__}"
            )
        return key

    def _rowids(self, keys: Iterator[Tuple[int, Any]]) -> Iterator[int]:
        """The row ids under each of the sorted ``keys`` in turn."""
        found = map(self.entries.get, map(_SECOND, keys))
        return chain.from_iterable(found) if self.label is None else found

    def range_rowids(
        self,
        lo: Any = UNBOUNDED,
        hi: Any = UNBOUNDED,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        descending: bool = False,
    ) -> Iterator[int]:
        """Row ids with ``lo (<|<=) value (<|<=) hi`` in key order.

        ``UNBOUNDED`` means no bound on that side; a ``None`` bound is SQL
        NULL, which no comparison satisfies, so the result is empty.
        """
        if lo is None or hi is None:
            return iter(())
        keys = self.keys
        start, end = (0, 0), None
        if lo is not UNBOUNDED:
            start = keys.position(self._check_comparable(lo), not lo_inclusive)
        if hi is not UNBOUNDED:
            end = keys.position(self._check_comparable(hi), hi_inclusive)
        return self._rowids(keys.keys(start, end, descending))

    def prefix_rowids(self, prefix: str) -> Iterator[int]:
        """Row ids whose string value starts with ``prefix``, in key order.

        Only meaningful on string columns (the planner checks the catalog
        type before choosing this path).
        """
        keys = self.keys
        rowids = self.rowids
        for rank, value in keys.keys(keys.position((1, prefix), False)):
            if rank != 1 or not value.startswith(prefix):
                return
            yield from rowids(value)

    def ordered_rowids(self, descending: bool = False) -> Iterator[int]:
        """Every row id in ORDER BY emission order: NULLs sort first
        ascending / last descending; ties within a value stay in ascending
        row-id order (what a stable sort over the scan would produce)."""
        nulls = self.nulls or ()
        keyed = self._rowids(self.keys.keys(descending=descending))
        return chain(keyed, nulls) if descending else chain(nulls, keyed)


class TableData:
    """Rows plus indexes for one table.  A row is an immutable tuple in
    the table's catalog column order (:attr:`Table.positions
    <repro.rdb.catalog.Table.positions>`), stored and handed out as is."""

    def __init__(self, table: Table) -> None:
        self.table = table
        #: Row id -> row tuple, iterated in ascending row-id order.
        self.rows = _RowPages()
        #: True once any *consumed* snapshot references this object — a
        #: reader may be iterating it, so a writer must clone instead of
        #: mutating in place, even if the latest snapshot was discarded.
        #: Set by DatabaseSnapshot.consume(), cleared only on the clone.
        self._cow_pinned = False
        self._next_rowid = 1
        self._autoincrement_next: Dict[str, int] = {
            c.name: 1 for c in table.columns.values() if c.autoincrement
        }
        #: Column tuple -> the one index over it, unique ones first (the
        #: order a duplicate is reported in).  Only :meth:`sync_indexes`
        #: changes which exist; what this table alone requires is there
        #: from the start, what other tables' foreign keys and CREATE
        #: INDEX add follows when the engine syncs after DDL.
        self.indexes: Dict[Tuple[str, ...], _Index] = {}
        self.sync_indexes(table.required_indexes())

    # -- mutation (raw: no constraint semantics beyond uniqueness) -------------

    def next_autoincrement(self, column: str) -> int:
        value = self._autoincrement_next[column]
        self._autoincrement_next[column] = value + 1
        return value

    def note_autoincrement_value(self, column: str, value: int) -> None:
        """Keep the auto counter ahead of explicitly inserted values."""
        if column in self._autoincrement_next:
            self._autoincrement_next[column] = max(
                self._autoincrement_next[column], value + 1
            )

    def clone(self) -> "TableData":
        """A second version of the table sharing every page with this
        one — the copy-on-write step of snapshot publication.

        O(rows / PAGE_SIZE): only the page directories are copied.  Both
        versions can be mutated/read independently afterwards; a write to
        either copies the pages it touches, nothing else.
        """
        clone = TableData.__new__(TableData)
        clone.table = self.table
        clone.rows = self.rows.clone()
        clone._cow_pinned = False  # no snapshot references the clone yet
        clone._next_rowid = self._next_rowid
        clone._autoincrement_next = dict(self._autoincrement_next)
        clone.indexes = {
            columns: index.clone() for columns, index in self.indexes.items()
        }
        return clone

    def sync_indexes(
        self, required: Dict[Tuple[str, ...], Tuple[Optional[str], bool]]
    ) -> None:
        """Make the index set equal ``required`` — column tuple ->
        (constraint label or None for grouped, ordered?), what
        :meth:`repro.rdb.catalog.Schema.required_indexes` derives from
        the catalog: an index that is missing, or whose kind changed, is
        built from the current rows; one nothing requires is dropped.

        A unique index the rows collide in raises
        :class:`IntegrityError` and leaves the set as it was.  The one
        place an index is built — call it on the version the engine's
        copy-on-write gate hands out, never on a published one.
        """
        indexes = {}
        for columns, (label, ordered) in required.items():
            index = self.indexes.get(columns)
            if (
                index is None
                or index.label != label
                or (index.keys is not None) != ordered
            ):
                index = _Index(self.table, columns, label, ordered)
                for rowid, row in self.rows.items():
                    index.insert(row, rowid)
            indexes[columns] = index
        self.indexes = indexes

    def containers(self) -> Iterator[_Pages]:
        """Every paged container of this table, in a fixed order (rows
        first) — two versions of one table yield corresponding ones."""
        yield self.rows
        for index in self.indexes.values():
            yield index.entries
            if index.keys is not None:
                yield index.keys

    def copied_entries(self) -> int:
        """Entries this version copied out of shared pages since it was
        created — the whole cost copy-on-write added to its writes."""
        return sum(pages.copied for pages in self.containers())

    def insert(self, row: Row) -> int:
        """Store ``row`` (a tuple in catalog column order) under a new row
        id, which is returned; a uniqueness violation stores nothing."""
        rowid = self._next_rowid
        self._next_rowid = rowid + 1
        indexes = self.indexes.values()
        try:
            for index in indexes:
                index.insert(row, rowid)
        except DatabaseError:
            # Take back the entries made in earlier indexes so a failed
            # insert leaves no phantom keys behind (``remove`` only drops
            # an entry that points at this row id).
            for index in indexes:
                index.remove(row, rowid)
            raise
        self.rows[rowid] = row
        return rowid

    def delete(self, rowid: int) -> Row:
        row = self.rows.pop(rowid)
        for index in self.indexes.values():
            index.remove(row, rowid)
        return row

    def update(self, rowid: int, changes: Dict[str, Any]) -> Row:
        """Store the row with ``changes`` (column -> new value) applied as
        a new tuple; returns the previous one.

        Only indexes over a changed column are touched (an index whose
        columns keep their values would get its entry removed and put
        back), so the pages of the others stay shared.
        """
        old = self.rows[rowid]
        new = self.table.replaced(old, changes)
        changed = changes.keys()
        touched = [
            index
            for index in self.indexes.values()
            if not changed.isdisjoint(index.columns)
        ]
        # Remove old index entries first, then insert new ones; on a
        # uniqueness failure we restore the old entries to stay consistent.
        for index in touched:
            index.remove(old, rowid)
        try:
            for index in touched:
                index.insert(new, rowid)
        except DatabaseError:
            for index in touched:
                index.remove(new, rowid)
            for index in touched:
                index.insert(old, rowid)
            raise
        self.rows[rowid] = new
        return old

    def restore(self, rowid: int, row: Row) -> None:
        """Reinstate a previously deleted row under its original id (undo).

        Scan order stays ascending row-id order (ordered-index tie
        emission and the stable scan+sort must stay indistinguishable):
        the row store re-orders the one page a mid-table row lands on.
        """
        for index in self.indexes.values():
            index.insert(row, rowid)
        self.rows.reinstate(rowid, row)

    # -- lookups (none builds an index, none falls back to a scan) ---------------

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield live (rowid, row) pairs in ascending row-id order,
        zero-copy: the rows are the stored tuples themselves.  A caller
        that mutates the *table* while iterating must materialize the
        pairs first."""
        return self.rows.items()

    # The planner's readers: a plan reads a table a page, or a chunk of
    # row ids, at a time, and checks for cancellation once per unit.

    def pages(self) -> Iterator[Dict[int, Row]]:
        """The row pages in ascending row-id order, empty ones skipped:
        dicts of at most ``PAGE_SIZE`` row id -> row, the stored pages
        themselves (the caveat of :meth:`scan` applies)."""
        return filter(None, self.rows.dir)

    def id_chunks(self, rowids: Any, size: int = PAGE_SIZE) -> Iterator[Any]:
        """``rowids`` — what :meth:`probe` or an ordered index's walk
        returns — in order, as sequences of at most ``size`` ids; a group
        that small is its own one chunk."""
        if type(rowids) is tuple and len(rowids) <= size:
            return iter((rowids,) if rowids else ())
        ids = iter(rowids)
        return iter(lambda: list(islice(ids, size)), [])

    # Callers hold one value per column — the planner's key expressions,
    # a foreign key's values — so ``key`` is a tuple here whatever the
    # width; an index over one column stores the value itself.

    def probe(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> Any:
        """Row ids whose ``columns`` equal ``key``, off the index over
        exactly those columns (see :meth:`_Index.rowids`)."""
        return self.indexes[columns].rowids(key if len(key) > 1 else key[0])

    def has_key(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> bool:
        """Does any row hold ``key`` in ``columns``?  Both sides of every
        foreign-key check land here."""
        return (key if len(key) > 1 else key[0]) in self.indexes[columns].entries

    def find_by_pk(self, key: Tuple[Any, ...]) -> Optional[int]:
        index = self.indexes.get(self.table.primary_key)
        if index is None:
            return None
        if len(key) == 1:
            key = key[0]
        entries = index.entries  # _HashPages.get, minus a call
        return entries.dir[hash(key) & entries.mask].get(key)

    def ordered_index(self, column: str) -> Optional[_Index]:
        """The index whose walks (``range_rowids`` / ``prefix_rowids`` /
        ``ordered_rowids``) read ``column`` in key order, or None."""
        index = self.indexes.get((column,))
        return index if index is not None and index.keys is not None else None

    # -- statistics (O(1) reads off incrementally maintained structures) ---------

    def row_count(self) -> int:
        return len(self.rows)

    def distinct_count(self, column: str) -> Optional[int]:
        """Distinct non-NULL values in ``column``, or None when no index
        tracks it.  O(1): the counts fall out of the index structures,
        which DML maintains incrementally — nothing is ever recounted."""
        index = self.indexes.get((column,))
        return None if index is None else len(index.entries)

    def __len__(self) -> int:
        return len(self.rows)
