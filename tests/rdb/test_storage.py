"""Unit tests for the row store and its indexes.

Rows are stored as tuples in catalog column order; the oracles below
keep theirs as column -> value dicts and compare through :func:`named`.
"""

import copy
import itertools
import random

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.rdb.catalog import Column, ForeignKey, Schema, Table
from repro.rdb.engine import Database
from repro.rdb.executor import Executor
from repro.rdb.storage import (
    _IDS_CHUNK,
    PAGE_SIZE,
    SLOT_MASK,
    TableData,
    _RowIds,
    _ordered_key,
)
from repro.rdb.transactions import Transaction
from repro.rdb.types import INTEGER, TEXT
from repro.sql import parse_statements


def named(data, row):
    """A stored row of ``data``'s table as column -> value."""
    return dict(zip(data.table.columns, row))


def named_rows(data):
    """``data.scan()`` with each row as column -> value."""
    return [(rowid, named(data, row)) for rowid, row in data.scan()]


def assert_rows_are_tuples(tables):
    """Every stored row of every table is a tuple of the table's width."""
    for data in tables.values():
        width = len(data.table.columns)
        for _, row in data.scan():
            assert type(row) is tuple and len(row) == width, (data.table.name, row)


def make_table():
    return Table(
        name="author",
        columns=[
            Column("id", INTEGER),
            Column("name", TEXT),
            Column("team", INTEGER),
        ],
        primary_key=("id",),
        foreign_keys=[ForeignKey(("team",), "team", ("id",))],
        uniques=[("name",)],
    )


@pytest.fixture
def data():
    return TableData(make_table())


class TestInsert:
    def test_insert_and_scan(self, data):
        data.insert((1, "a", None))
        data.insert((2, "b", 5))
        assert len(data) == 2
        assert list(data.scan()) == [(1, (1, "a", None)), (2, (2, "b", 5))]

    def test_pk_index(self, data):
        rowid = data.insert((7, "x", None))
        assert data.find_by_pk((7,)) == rowid
        assert data.find_by_pk((8,)) is None

    def test_duplicate_pk_rejected(self, data):
        data.insert((1, "a", None))
        with pytest.raises(IntegrityError, match="primary key"):
            data.insert((1, "b", None))

    def test_duplicate_unique_rejected(self, data):
        data.insert((1, "same", None))
        with pytest.raises(IntegrityError, match="unique"):
            data.insert((2, "same", None))

    def test_null_unique_values_never_collide(self, data):
        data.insert((1, None, None))
        data.insert((2, None, None))  # no error
        assert len(data) == 2

    def test_secondary_index_on_fk(self, data):
        data.insert((1, "a", 5))
        data.insert((2, "b", 5))
        data.insert((3, "c", 6))
        assert len(data.probe(("team",), (5,))) == 2
        assert data.has_key(("team",), (6,))
        assert not data.has_key(("team",), (7,))


class TestUpdate:
    def test_update_moves_indexes(self, data):
        rowid = data.insert((1, "a", 5))
        data.update(rowid, {"team": 6})
        assert not data.has_key(("team",), (5,))
        assert data.has_key(("team",), (6,))

    def test_update_pk(self, data):
        rowid = data.insert((1, "a", None))
        data.update(rowid, {"id": 9})
        assert data.find_by_pk((9,)) == rowid
        assert data.find_by_pk((1,)) is None

    def test_update_unique_violation_restores_state(self, data):
        data.insert((1, "a", None))
        rowid = data.insert((2, "b", None))
        with pytest.raises(IntegrityError):
            data.update(rowid, {"name": "a"})
        # indexes unchanged: the old name is still findable
        assert data.rows[rowid] == (2, "b", None)
        assert data.probe(("name",), ("b",)) == (rowid,)

    def test_update_returns_old_image(self, data):
        rowid = data.insert((1, "a", None))
        old = data.update(rowid, {"name": "z"})
        assert old == (1, "a", None)
        assert data.rows[rowid] == (1, "z", None)


class TestDeleteRestore:
    def test_delete_clears_indexes(self, data):
        rowid = data.insert((1, "a", 5))
        data.delete(rowid)
        assert len(data) == 0
        assert data.find_by_pk((1,)) is None
        assert not data.has_key(("team",), (5,))

    def test_restore_reinstates_everything(self, data):
        rowid = data.insert((1, "a", 5))
        image = data.delete(rowid)
        data.restore(rowid, image)
        assert data.find_by_pk((1,)) == rowid
        assert data.has_key(("team",), (5,))


class TestRowSlots:
    """Row page ``rowid >> PAGE_BITS`` holds a row in slot ``rowid &
    SLOT_MASK``: holes, undo and emptied pages, against a dict oracle."""

    @staticmethod
    def loaded(rows):
        data = TableData(make_table())
        for key in range(1, rows + 1):
            data.insert((key, f"n{key}", key % 5))
        return data

    @staticmethod
    def assert_reads(data, oracle):
        """Every reader of the row store answers what ``oracle`` holds."""
        expected = sorted(oracle.items())
        assert list(data.scan()) == list(data.rows.items()) == expected
        assert list(data.rows) == [rowid for rowid, _ in expected]
        assert list(data.rows.values()) == [row for _, row in expected]
        pages = list(data.pages())
        assert all(page.live for page in pages)
        assert sum(page.live for page in pages) == len(data) == len(oracle)
        assert [pair for page in pages for pair in page.items()] == expected
        assert [row for page in pages for row in page.rows()] == [r for _, r in expected]
        assert [rowid for page in pages for rowid in page.ids()] == sorted(oracle)
        for rowid in range(0, (max(oracle, default=0) | SLOT_MASK) + PAGE_SIZE + 2):
            row = oracle.get(rowid)
            assert data.rows.get(rowid) == row and (rowid in data.rows) == (row is not None)
            if row is None:
                with pytest.raises(KeyError):
                    data.rows[rowid]
            else:
                assert data.rows[rowid] == row

    def test_an_undo_in_the_middle_of_a_page_keeps_row_id_order(self):
        data = self.loaded(300)
        gone = {rowid: data.delete(rowid) for rowid in (131, 5, 200, 130, 6)}
        for rowid in (6, 200, 131, 5, 130):  # not the order they went in
            data.restore(rowid, gone[rowid])
        assert list(data.rows) == list(range(1, 301))
        assert [row[0] for page in data.pages() for row in page.rows()] == list(range(1, 301))
        self.assert_reads(data, {key: (key, f"n{key}", key % 5) for key in range(1, 301)})

    def test_a_page_emptied_by_deletes_leaves_pages(self):
        data = self.loaded(3 * PAGE_SIZE - 1)  # ids 1 .. 383: pages 0, 1, 2
        frozen = data.clone()
        for rowid in range(PAGE_SIZE, 2 * PAGE_SIZE):
            data.delete(rowid)
        assert [page.base for page in data.pages()] == [0, 2 * PAGE_SIZE]
        assert [page.live for page in data.pages()] == [PAGE_SIZE - 1, PAGE_SIZE]
        # the version it was cloned from keeps the page
        assert [page.live for page in frozen.pages()] == [PAGE_SIZE - 1] + [PAGE_SIZE] * 2
        data.restore(PAGE_SIZE + 3, frozen.rows[PAGE_SIZE + 3])
        assert [page.live for page in data.pages()] == [PAGE_SIZE - 1, 1, PAGE_SIZE]
        self.assert_reads(frozen, dict(frozen.scan()))

    def test_lookups_on_a_hole_and_past_the_directory(self):
        data = self.loaded(PAGE_SIZE + 10)
        data.delete(7)
        for rowid in (0, 7, PAGE_SIZE + 11, 2 * PAGE_SIZE - 1, 2 * PAGE_SIZE, 10**6):
            assert data.rows.get(rowid) is None and data.rows.get(rowid, "x") == "x"
            assert rowid not in data.rows
            with pytest.raises(KeyError):
                data.rows[rowid]
        assert data.rows[8] == (8, "n8", 3) and 8 in data.rows
        with pytest.raises(KeyError):
            data.delete(7)

    @pytest.mark.parametrize("seed", range(6))
    def test_scan_equals_a_dict_oracle_over_seeded_histories(self, seed):
        rng = random.Random(seed)
        data, oracle, graveyard = TableData(make_table()), {}, []
        versions = []  # (frozen clone, its oracle)
        for step in range(900):
            roll = rng.random()
            if roll < 0.5 or not oracle:
                key = data._next_rowid + 10_000
                rowid = data.insert((key, None, rng.randrange(4)))
                oracle[rowid] = data.rows[rowid]
            elif roll < 0.8:
                rowid = rng.choice(sorted(oracle))
                graveyard.append((rowid, data.delete(rowid)))
                del oracle[rowid]
            elif graveyard:
                rowid, row = graveyard.pop(rng.randrange(len(graveyard)))
                data.restore(rowid, row)
                oracle[rowid] = row
            if step % 150 == 0:
                versions.append((data, dict(oracle)))
                data = data.clone()
        self.assert_reads(data, oracle)
        for frozen, frozen_oracle in versions:
            self.assert_reads(frozen, frozen_oracle)


class TestAutoincrement:
    def make_auto_table(self):
        return Table(
            name="t",
            columns=[Column("id", INTEGER, autoincrement=True), Column("v", TEXT)],
            primary_key=("id",),
        )

    def test_monotonic(self):
        data = TableData(self.make_auto_table())
        assert data.next_autoincrement("id") == 1
        assert data.next_autoincrement("id") == 2

    def test_note_explicit_value_advances_counter(self):
        data = TableData(self.make_auto_table())
        data.note_autoincrement_value("id", 10)
        assert data.next_autoincrement("id") == 11

    def test_note_lower_value_does_not_regress(self):
        data = TableData(self.make_auto_table())
        data.note_autoincrement_value("id", 10)
        data.note_autoincrement_value("id", 3)
        assert data.next_autoincrement("id") == 11


# ---------------------------------------------------------------------------
# versions of one table (clone) against a dict-of-dicts oracle
# ---------------------------------------------------------------------------

def make_wide_table():
    return Table(
        name="item",
        columns=[
            Column("id", INTEGER),
            Column("name", TEXT),
            Column("team", INTEGER),
            Column("score", INTEGER),
            Column("tag", TEXT),
            Column("a", INTEGER),
            Column("b", INTEGER),
        ],
        primary_key=("id",),
        foreign_keys=[ForeignKey(("team",), "team", ("id",))],
        uniques=[("name",)],
    )


PK, UNIQUE, GROUPED = ("primary key", False), ("unique", False), (None, False)


class Oracle:
    """What a :class:`TableData` version must answer: the rows as a plain
    dict of dicts plus which indexes exist, as column tuple -> (constraint
    label or None, ordered?).  Everything a test compares is recomputed
    from those by the obvious loop."""

    def __init__(self, required=None):
        self.rows = {}
        self.required = required or {("id",): PK, ("name",): UNIQUE, ("team",): GROUPED}

    def freeze(self):
        return copy.deepcopy(self)

    def groups(self, columns, rows=None):
        rows = self.rows if rows is None else rows
        groups = {}
        for rowid in sorted(rows):
            key = tuple(rows[rowid][c] for c in columns)
            if None not in key:
                groups.setdefault(key, []).append(rowid)
        return groups

    def collides(self, row=None, rowid=None, required=None):
        """Would the rows, with ``row`` stored under ``rowid`` (a new id
        if None), break a unique index of ``required`` (default: of the
        current index set)?"""
        rows = dict(self.rows)
        if row is not None:
            rows[rowid or -1] = row
        return any(
            label is not None
            and any(len(group) > 1 for group in self.groups(columns, rows).values())
            for columns, (label, _) in (required or self.required).items()
        )

    def in_order(self, column, descending=False):
        """ORDER BY ``column``: a stable sort of the row-id-ordered scan
        (ties stay in ascending row-id order either way), NULLs first
        ascending and last descending."""
        keyed = [r for r in sorted(self.rows) if self.rows[r][column] is not None]
        nulls = [r for r in sorted(self.rows) if self.rows[r][column] is None]
        keyed.sort(
            key=lambda r: _ordered_key(self.rows[r][column]), reverse=descending
        )
        return keyed + nulls if descending else nulls + keyed


def index_kinds(data):
    """The index set as :meth:`TableData.sync_indexes` takes it."""
    return {
        columns: (index.label, index.keys is not None)
        for columns, index in data.indexes.items()
    }


def assert_matches(data, oracle, rng):
    rows = oracle.rows
    assert named_rows(data) == [(r, rows[r]) for r in sorted(rows)]
    assert_rows_are_tuples({data.table.name: data})
    assert len(data) == data.row_count() == len(rows)
    assert list(data.rows) == sorted(rows)
    for rowid in rows:
        assert named(data, data.rows[rowid]) == rows[rowid]
    assert data.rows.get(max(rows, default=0) + 1000) is None

    # one structure per column tuple, in the order duplicates are reported
    assert list(index_kinds(data).items()) == list(oracle.required.items())
    pages = list(data.containers())
    assert len(pages) == len(set(map(id, pages))) == 1 + len(oracle.required) + sum(
        ordered for _, ordered in oracle.required.values()
    )
    for columns, (label, ordered) in oracle.required.items():
        groups = oracle.groups(columns)
        assert len(data.indexes[columns].entries) == len(groups)
        for key, rowids in groups.items():
            found = data.probe(columns, key)
            assert list(found) == rowids and len(found) == len(rowids)
            assert data.has_key(columns, key)
            assert label is None or len(rowids) == 1
        missing = (-1,) * len(columns)
        assert len(data.probe(columns, missing)) == 0
        assert not data.has_key(columns, missing)
        if len(columns) == 1:
            assert data.distinct_count(columns[0]) == len(groups)
            assert (data.ordered_index(columns[0]) is not None) == ordered
    assert data.find_by_pk((-1,)) is None
    for rowid, row in rows.items():
        assert data.find_by_pk((row["id"],)) == rowid
    assert data.distinct_count("b") is None or ("b",) in oracle.required

    for (column,) in [c for c, (_, ordered) in oracle.required.items() if ordered]:
        index = data.ordered_index(column)
        ascending = oracle.in_order(column)
        assert list(index.ordered_rowids()) == ascending
        descending = oracle.in_order(column, descending=True)
        assert list(index.ordered_rowids(descending=True)) == descending
        values = sorted(
            {row[column] for row in rows.values() if row[column] is not None},
            key=_ordered_key,
        )
        if not values:
            continue
        lo, hi = sorted(rng.choices(values, k=2), key=_ordered_key)
        for lo_inc in (True, False):
            for hi_inc in (True, False):
                expected = [
                    r
                    for r in ascending
                    if rows[r][column] is not None
                    and (lo < rows[r][column] or (lo_inc and lo == rows[r][column]))
                    and (rows[r][column] < hi or (hi_inc and hi == rows[r][column]))
                ]
                assert list(index.range_rowids(lo, hi, lo_inc, hi_inc)) == expected
        assert list(index.range_rowids(lo, hi, descending=True)) == [
            r
            for r in descending
            if rows[r][column] is not None and lo <= rows[r][column] <= hi
        ]
        assert list(index.range_rowids(hi=None)) == []
        if isinstance(values[0], str):
            prefix = rng.choice(values)[:2]
            assert list(index.prefix_rowids(prefix)) == [
                r
                for r in ascending
                if rows[r][column] is not None
                and rows[r][column].startswith(prefix)
            ]


class TestVersionsAgainstOracle:
    """Seeded random DML, undo-style restores and index-set changes over
    a chain of ``clone()``d versions: after every step the working
    version AND every ancestor still answer exactly like their oracle."""

    #: What ``index_ddl`` switches on and off, unique ones first (the
    #: order :meth:`Table.required_indexes` lists them in): every kind
    #: over one and two columns, an ordered half added to the unique and
    #: the foreign-key index the table starts with, a grouped index that
    #: turns unique and back, and one the rows always collide in.
    TOGGLES = [
        (("id", "a"), ("unique index", False)),
        (("tag", "id"), ("unique index", False)),
        (("score",), ("unique index", True)),  # collides unless scores differ
        (("a",), ("unique index", True)),  # six values: always collides
        (("name",), ("unique", True)),
        (("team",), (None, True)),
        (("score",), (None, True)),
        (("tag",), (None, True)),
        (("a",), GROUPED),
        (("a", "b"), GROUPED),
        (("b", "a"), GROUPED),
    ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_version_stays_equal_to_its_oracle(self, seed):
        rng = random.Random(seed)
        head, oracle = TableData(make_wide_table()), Oracle()
        versions = []  # (frozen TableData, frozen oracle)
        graveyard = []  # deleted (rowid, row), restored later like an undo
        next_id = [1]
        switched_on = set()  # positions in TOGGLES

        def new_row():
            key = next_id[0]
            next_id[0] += 1
            return {
                "id": key,
                "name": None if rng.random() < 0.1 else f"n{key}",
                # two teams hold most rows: groups beyond one page
                "team": rng.choice([1, 1, 1, 2, 2, 3, None]),
                "score": None if rng.random() < 0.1 else rng.randrange(400),
                "tag": rng.choice("abcd") + rng.choice("xyz") + str(rng.randrange(60)),
                "a": rng.randrange(6),
                "b": rng.choice([None, 0, 1, 2]),
            }

        def insert():
            row = new_row()
            if oracle.rows and rng.random() < 0.1:  # a duplicate key
                row["id"] = rng.choice(list(oracle.rows.values()))["id"]
            if oracle.collides(row):
                before = head._next_rowid
                with pytest.raises(IntegrityError):
                    head.insert(head.table.row_from(row))
                assert head._next_rowid == before + 1
            else:
                oracle.rows[head.insert(head.table.row_from(row))] = row

        def update():
            rowid = rng.choice(list(oracle.rows))
            changes = {
                column: value
                for column, value in new_row().items()
                if column != "id" and rng.random() < 0.4
            }
            if rng.random() < 0.1:
                changes["name"] = rng.choice(list(oracle.rows.values()))["name"]
            new = {**oracle.rows[rowid], **changes}
            if oracle.collides(new, rowid):
                with pytest.raises(IntegrityError):
                    head.update(rowid, changes)
            else:
                assert named(head, head.update(rowid, changes)) == oracle.rows[rowid]
                oracle.rows[rowid] = new

        def delete():
            rowid = rng.choice(list(oracle.rows))
            assert named(head, head.delete(rowid)) == oracle.rows[rowid]
            graveyard.append((rowid, oracle.rows.pop(rowid)))

        def restore():
            if graveyard:
                rowid, row = graveyard.pop()
                if not oracle.collides(row):
                    head.restore(rowid, head.table.row_from(row))
                    oracle.rows[rowid] = row

        def index_ddl():
            wanted = switched_on ^ {rng.randrange(len(self.TOGGLES))}
            required = dict(Oracle().required)
            del required[("team",)]
            for position in sorted(wanted):  # the first spec per tuple wins
                required.setdefault(*self.TOGGLES[position])
            required.setdefault(("team",), GROUPED)
            required = {  # unique ones first
                **{c: kind for c, kind in required.items() if kind[0]},
                **{c: kind for c, kind in required.items() if not kind[0]},
            }
            if oracle.collides(required=required):
                before = index_kinds(head), list(head.containers())
                with pytest.raises(IntegrityError):
                    head.sync_indexes(required)
                after = index_kinds(head), list(head.containers())
                assert before == after  # a failed build leaves the set alone
            else:
                head.sync_indexes(required)
                oracle.required = required
                switched_on.clear()
                switched_on.update(wanted)

        for _ in range(3 * PAGE_SIZE):  # several pages of every structure
            insert()
        steps = [insert] * 4 + [update] * 4 + [delete] * 3 + [restore] * 2 + [index_ddl] * 2
        for step in range(240):
            if step % 30 == 0:
                versions.append((head, oracle.freeze()))
                head = head.clone()
            if oracle.rows:
                rng.choice(steps)()
            else:
                insert()
            assert_matches(head, oracle, rng)
            for frozen, frozen_oracle in versions:
                assert_matches(frozen, frozen_oracle, rng)
        assert len(versions) == 8 and len(oracle.rows) > 2 * PAGE_SIZE

    def test_row_id_groups_share_their_chunks(self):
        """A group beyond one page is chunked: adding or removing one id
        rebuilds one chunk; every other chunk is the same object."""
        data = TableData(make_table())
        for key in range(1, 20_001):
            data.insert((key, None, 7))
        before = data.probe(("team",), (7,))
        assert isinstance(before, _RowIds) and len(before) == 20_000
        assert all(len(chunk) <= _IDS_CHUNK for chunk in before.chunks)
        data.update(10_000, {"team": 8})
        after = data.probe(("team",), (7,))
        assert list(before) == list(range(1, 20_001))  # the old group is intact
        assert list(after) == [r for r in range(1, 20_001) if r != 10_000]
        rebuilt = [a for a, b in zip(after.chunks, before.chunks) if a is not b]
        assert len(after.chunks) == len(before.chunks) and len(rebuilt) == 1
        data.update(10_000, {"team": 7})  # back into the middle of the group
        assert list(data.probe(("team",), (7,))) == list(before)
        assert data.probe(("team",), (8,)) == ()


def changed_pages(before, after):
    """Per container: how many directory slots of ``after`` hold a page
    that is not the very object ``before`` holds there."""
    counts = []
    for old, new in zip(before.containers(), after.containers()):
        counts.append(sum(a is not b for a, b in zip(old.dir, new.dir)))
        counts[-1] += abs(len(old.dir) - len(new.dir))
    return counts


class TestCopiedEntries:
    """What one single-row write costs after ``clone()`` does not depend
    on how many rows the table holds."""

    @staticmethod
    def loaded(rows, team_of):
        data = TableData(make_table())
        for key in range(1, rows + 1):
            data.insert((key, None, team_of(key)))
        assert data.copied_entries() == 0  # a bulk load never copies
        return data

    def writes(self, rows, team_of):
        """(pages replaced, entries copied) by one insert, one update of a
        row on a full page and one delete, each on its own clone."""
        frozen = self.loaded(rows, team_of)
        target = PAGE_SIZE + 5  # second row page: full at every size
        results = []
        for write in (
            lambda data: data.insert((rows + 1, None, 3)),
            lambda data: data.update(target, {"name": "renamed"}),
            lambda data: data.delete(target),
        ):
            working = frozen.clone()
            assert working.copied_entries() == 0 and changed_pages(frozen, working) == [0] * 4
            write(working)
            results.append((changed_pages(frozen, working), working.copied_entries()))
        assert len(frozen) == rows and frozen.rows[target] == (target, None, team_of(target))
        return results

    def test_one_write_after_clone_costs_the_same_at_1k_and_100k_rows(self):
        small = self.writes(1_000, lambda key: key % 50)
        large = self.writes(100_000, lambda key: key % 50)
        # containers: rows, primary key, unique(name), team
        assert [pages for pages, _ in small] == [
            [1, 1, 0, 1],  # insert: NULL name is not indexed
            [1, 0, 1, 0],  # update of name only
            [1, 1, 0, 1],  # delete
        ]
        assert [pages for pages, _ in large] == [pages for pages, _ in small]
        # the update touches one full row page and an empty bucket: exact
        assert small[1][1] == large[1][1] == PAGE_SIZE
        # a hash bucket's fill varies with the keys in it, never beyond a page
        for (pages, entries), (_, entries_small) in zip(large, small):
            assert entries <= sum(pages) * PAGE_SIZE
            assert entries_small <= sum(pages) * PAGE_SIZE

    def test_a_value_shared_by_20k_rows_costs_no_more(self):
        spread = self.writes(20_000, lambda key: key % 50)
        shared = self.writes(20_000, lambda key: 3)
        assert [pages for pages, _ in shared] == [pages for pages, _ in spread]
        for pages, entries in shared:
            assert entries <= sum(pages) * PAGE_SIZE


# ---------------------------------------------------------------------------
# the index set against the catalog: seeded DDL + DML histories through SQL
# ---------------------------------------------------------------------------

def required_from_catalog(schema, name):
    """Which indexes table ``name`` must have — column tuple -> (label,
    ordered?) — worked out from the catalog independently of
    ``Table.required_indexes``: the rule the engine is held to."""
    table = schema.table(name)
    declared = [index for index in schema._indexes.values() if index.table == name]
    unique = [(table.primary_key, "primary key")] if table.primary_key else []
    unique += [(columns, "unique") for columns in table.uniques]
    unique += [(index.columns, "unique index") for index in declared if index.unique]
    plain = [fk.columns for fk in table.foreign_keys]
    for other in schema.tables():
        for fk in other.foreign_keys:
            if fk.ref_table == name:
                plain.append(fk.ref_columns or table.primary_key)
    plain += [index.columns for index in declared]
    labels = {}
    for columns, label in unique + [(columns, None) for columns in plain]:
        labels.setdefault(tuple(columns), label)
    return {
        columns: (
            label,
            len(columns) == 1 and any(i.columns == columns for i in declared),
        )
        for columns, label in labels.items()
    }


PARENT = """
CREATE TABLE parent (
    id INTEGER PRIMARY KEY, code INTEGER UNIQUE,
    a INTEGER, b INTEGER, x INTEGER, y INTEGER, UNIQUE (a, b)
)
"""

#: Children by what their foreign key points at: the primary key, a
#: UNIQUE column, a UNIQUE pair, a plain column, a plain pair — and the
#: parent itself, by a plain column.
CHILDREN = {
    "c_pk": "p INTEGER REFERENCES parent(id)",
    "c_code": "p INTEGER REFERENCES parent(code)",
    "c_ab": "p INTEGER, q INTEGER, FOREIGN KEY (p, q) REFERENCES parent (a, b)",
    "c_x": "p INTEGER REFERENCES parent(x)",
    "c_xy": "p INTEGER, q INTEGER, FOREIGN KEY (p, q) REFERENCES parent (x, y)",
    "c_self": "p INTEGER, q INTEGER REFERENCES c_self(p)",
}

#: Declared indexes: one and two columns, each twice, unique and not,
#: over constrained, referenced and plain columns.
DECLARED = {
    "i_x": "INDEX i_x ON parent (x)",
    "i_x2": "INDEX i_x2 ON parent (x)",
    "u_x": "UNIQUE INDEX u_x ON parent (x)",  # collides once two rows share x
    "i_xy": "INDEX i_xy ON parent (x, y)",
    "i_xy2": "INDEX i_xy2 ON parent (x, y)",
    "u_idx": "UNIQUE INDEX u_idx ON parent (id, x)",
    "i_code": "INDEX i_code ON parent (code)",
    "i_id": "INDEX i_id ON parent (id)",
    "i_ab": "INDEX i_ab ON parent (a, b)",
    "i_p": "INDEX i_p ON c_pk (p)",
    "u_p": "UNIQUE INDEX u_p ON c_x (p)",
}


def assert_follows_catalog(tables, schema, model, rng):
    """Every table's index set is what the catalog requires, and its
    rows and index contents are what the model holds."""
    assert set(tables) == set(schema.table_names())
    for name, data in tables.items():
        oracle = Oracle(required_from_catalog(schema, name))
        oracle.rows = dict(named_rows(data))
        assert sorted(oracle.rows.values(), key=lambda row: row["id"]) == [
            model[name][key] for key in sorted(model[name])
        ]
        assert_matches(data, oracle, rng)


class TestIndexSetFollowsCatalog:
    def run(self, db, sql):
        """Execute; False (and nothing may have changed) on a refusal."""
        try:
            db.execute(sql)
            return True
        except (IntegrityError, CatalogError):
            return False

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_seeded_ddl_and_dml_histories(self, seed):
        rng = random.Random(seed)
        db = Database()
        db.execute(PARENT)
        model = {"parent": {}}  # table -> primary key -> row
        frozen = []  # (snapshot, its schema's requirement, model, containers)
        next_id = [1]

        def small():
            return rng.choice([None, 0, 1, 2, 3])

        def insert_parent():
            key = next_id[0]
            next_id[0] += 1
            row = {"id": key, "code": rng.choice([None, key, key - 1]),
                   "a": small(), "b": small(), "x": small(), "y": small()}
            values = ", ".join("NULL" if v is None else str(v) for v in row.values())
            if self.run(db, f"INSERT INTO parent VALUES ({values})"):
                model["parent"][key] = row

        def insert_child():
            name = rng.choice(sorted(set(model) - {"parent"}) or ["parent"])
            if name == "parent":
                return insert_parent()
            key = next_id[0]
            next_id[0] += 1
            row = {"id": key, "p": small()}
            if "q INTEGER" in CHILDREN[name]:
                row["q"] = small()
            values = ", ".join("NULL" if v is None else str(v) for v in row.values())
            if self.run(db, f"INSERT INTO {name} VALUES ({values})"):
                model[name][key] = row

        def update():
            name = rng.choice(sorted(model))
            if model[name]:
                key = rng.choice(sorted(model[name]))
                column = rng.choice([c for c in model[name][key] if c != "id"])
                value = small()
                shown = "NULL" if value is None else value
                if self.run(db, f"UPDATE {name} SET {column} = {shown} WHERE id = {key}"):
                    model[name][key] = {**model[name][key], column: value}

        def delete():
            name = rng.choice(sorted(model))
            if model[name]:
                key = rng.choice(sorted(model[name]))
                if self.run(db, f"DELETE FROM {name} WHERE id = {key}"):
                    del model[name][key]

        def rolled_back():
            before = copy.deepcopy(model)
            db.begin()
            for _ in range(rng.randrange(1, 5)):
                rng.choice([insert_parent, insert_child, update, delete])()
            db.rollback()
            model.clear()
            model.update(before)

        def table_ddl():
            name = rng.choice(sorted(CHILDREN))
            if name in model:
                assert self.run(db, f"DROP TABLE {name}")
                del model[name]
            else:
                assert self.run(db, f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, {CHILDREN[name]})")
                model[name] = {}

        def index_ddl():
            name = rng.choice(sorted(DECLARED))
            if db.schema.has_index(name):
                assert self.run(db, f"DROP INDEX {name}")
            else:
                before = copy.deepcopy((db.schema._indexes, db.schema.table("parent").uniques))
                if not self.run(db, f"CREATE {DECLARED[name]}"):
                    assert before == (db.schema._indexes, db.schema.table("parent").uniques)

        def take_snapshot():
            snap = db.snapshot()
            required = {n: required_from_catalog(db.schema, n) for n in snap.tables}
            containers = {n: list(t.containers()) for n, t in snap.tables.items()}
            frozen.append((snap, required, copy.deepcopy(model), containers))
            del frozen[:-4]

        steps = (
            [insert_parent] * 3 + [insert_child] * 4 + [update] * 3 + [delete] * 3
            + [rolled_back, table_ddl, table_ddl, index_ddl, index_ddl, take_snapshot]
        )
        for _ in range(220):
            rng.choice(steps)()
            assert_follows_catalog(db.data, db.schema, model, rng)
            for snap, required, rows, containers in frozen:
                for name, data in snap.tables.items():
                    # same index set, same structures, same answers as then
                    assert index_kinds(data) == required[name]
                    now = list(data.containers())
                    assert len(now) == len(containers[name])
                    assert all(a is b for a, b in zip(now, containers[name]))
                    assert sorted(
                        (row for _, row in named_rows(data)), key=lambda row: row["id"]
                    ) == [rows[name][key] for key in sorted(rows[name])]
                    oracle = Oracle(required[name])
                    oracle.rows = dict(named_rows(data))
                    assert_matches(data, oracle, rng)
        assert len(model) > 1 or model["parent"]

    def test_child_before_parent_is_refused_and_leaves_nothing(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE c_x (id INTEGER PRIMARY KEY, p INTEGER REFERENCES parent(x))")
        assert db.schema.table_names() == [] and db.data == {}
        db.execute(PARENT)
        before = index_kinds(db.table_data("parent"))
        db.execute("CREATE TABLE c_x (id INTEGER PRIMARY KEY, p INTEGER REFERENCES parent(x))")
        assert index_kinds(db.table_data("parent")) == {**before, ("x",): GROUPED}

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(["i_x", "i_x2", "i_xy", "c_x", "c_xy"]))[::7]
    )
    def test_every_drop_order_ends_at_the_tables_own_constraints(self, order):
        """Two declared indexes and a child's foreign key all require the
        index over (x,); two more the one over (x, y): whichever goes
        last takes the structure with it, none earlier."""
        db = Database()
        db.execute(PARENT)
        own = index_kinds(db.table_data("parent"))
        created = list(order)
        random.Random(str(order)).shuffle(created)
        for name in created:
            ddl = DECLARED.get(name) or f"TABLE {name} (id INTEGER PRIMARY KEY, {CHILDREN[name]})"
            db.execute(f"CREATE {ddl}")
        db.execute("INSERT INTO parent VALUES (1, 1, 0, 0, 5, 6)")
        for position, name in enumerate(order):
            db.execute(f"DROP {'TABLE' if name in CHILDREN else 'INDEX'} {name}")
            kinds = index_kinds(db.table_data("parent"))
            assert kinds == required_from_catalog(db.schema, "parent")
            left = set(order[position + 1:])
            assert (("x",) in kinds) == bool(left & {"i_x", "i_x2", "c_x"})
            assert kinds.get(("x",), (None, False))[1] == bool(left & {"i_x", "i_x2"})
            assert (("x", "y") in kinds) == bool(left & {"i_xy", "i_xy2", "c_xy"})
        assert index_kinds(db.table_data("parent")) == own


# ---------------------------------------------------------------------------
# rows are immutable tuples: nothing a caller holds aliases the store
# ---------------------------------------------------------------------------

class TestRowsAreTuples:
    def make(self):
        table = Table(
            name="t",
            columns=[Column("id", INTEGER), Column("name", TEXT), Column("n", INTEGER)],
            primary_key=("id",),
            uniques=[("name",)],
        )
        schema = Schema()
        schema.add(table)
        data = {"t": TableData(table)}
        return table, data, Executor(schema, data)

    def test_mutating_what_a_caller_passed_or_got_leaves_the_store(self):
        table, data, executor = self.make()
        txn = Transaction()
        values = [1, "a", 1]
        insert = parse_statements("INSERT INTO t (id, name, n) VALUES (?, ?, ?)")[0]
        executor.insert(insert, txn, values)
        values[:] = [9, "changed", None]
        rowid = data["t"].find_by_pk((1,))
        assert data["t"].rows[rowid] == (1, "a", 1)
        changes = ["b", 1]
        update = parse_statements("UPDATE t SET name = ? WHERE id = ?")[0]
        executor.update(update, txn, changes)
        changes[:] = ["changed again", 1]
        assert data["t"].rows[rowid] == (1, "b", 1)
        assert data["t"].probe(("name",), ("b",)) == (rowid,)
        assert txn.wal_record()[1][3] == {"name": "b"}  # the logged post-image

        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT UNIQUE, n INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 'a', 1)")
        got = db.get_row_by_pk("t", (1,))
        assert got == {"id": 1, "name": "a", "n": 1}
        got["name"] = "changed"
        assert db.get_row_by_pk("t", (1,)) == {"id": 1, "name": "a", "n": 1}
        assert db.row_by_pk("t", (1,)) == (1, "a", 1)
        assert db.query("SELECT name FROM t WHERE name = 'a'").rows == [("a",)]

    def test_an_update_stores_a_new_tuple_and_returns_the_old_one(self):
        table, data, _ = self.make()
        rowid = data["t"].insert((1, "a", 1))
        before = data["t"].rows[rowid]
        assert data["t"].update(rowid, {"n": 2}) is before
        assert before == (1, "a", 1) and data["t"].rows[rowid] == (1, "a", 2)

    def test_rows_from_every_path_are_tuples_of_the_tables_width(self, tmp_path):
        """Rows stored by DML, restored by undo, loaded from a checkpoint,
        replayed from the WAL and applied on a replica."""
        ddl = (
            "CREATE TABLE p (id INTEGER PRIMARY KEY, a TEXT, b REAL);"
            "CREATE TABLE c (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "p INTEGER REFERENCES p(id), flag BOOLEAN);"
        )
        db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        db.execute_script(ddl)
        db.execute_script(
            "INSERT INTO p VALUES (1, 'x', 0.5); INSERT INTO p (id) VALUES (2);"
            "INSERT INTO c (p, flag) VALUES (1, TRUE);"
            "INSERT INTO c (p) VALUES (2);"
        )
        db.begin()
        db.execute("UPDATE p SET a = 'y' WHERE id = 1")
        db.execute("DELETE FROM c WHERE id = 1")
        db.execute("INSERT INTO p VALUES (3, 'z', 1.0)")
        db.rollback()  # undo of an update, a delete and an insert
        assert_rows_are_tuples(db.data)
        assert [row for _, row in db.table_data("c").scan()] == [(1, 1, True), (2, 2, None)]
        db.checkpoint()
        db.execute("UPDATE p SET b = 2.5 WHERE id = 2")
        db.execute("INSERT INTO c (p, flag) VALUES (2, FALSE)")
        expected = {name: list(data.scan()) for name, data in db.data.items()}
        db.close()

        recovered = Database(data_dir=str(tmp_path / "primary"))  # checkpoint + WAL
        try:
            assert_rows_are_tuples(recovered.data)
            assert {name: list(data.scan()) for name, data in recovered.data.items()} == expected
            recovered.execute("INSERT INTO c (p) VALUES (1)")  # counters moved past
            assert recovered.row_by_pk("c", (4,)) == (4, 1, None)
        finally:
            recovered.close()

        replica = Database()
        replica.read_only = True
        replica.apply_replicated([("x", ddl.split(";")[0]), ("x", ddl.split(";")[1])])
        replica.apply_replicated([
            ("i", "p", 1, {"id": 1, "a": "x", "b": 0.5}),
            ("i", "p", 2, {"b": None, "id": 2}),  # order and gaps are the log's
            ("u", "p", 1, {"a": "w"}),
        ])
        assert_rows_are_tuples(replica.data)
        assert list(replica.table_data("p").scan()) == [(1, (1, "w", 0.5)), (2, (2, None, None))]
