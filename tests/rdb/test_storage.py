"""Unit tests for the row store and its indexes."""

import copy
import random

import pytest

from repro.errors import IntegrityError
from repro.rdb.catalog import Column, ForeignKey, Table
from repro.rdb.storage import (
    _IDS_CHUNK,
    PAGE_SIZE,
    TableData,
    _RowIds,
    _ordered_key,
)
from repro.rdb.types import INTEGER, TEXT


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
        data.insert({"id": 1, "name": "a", "team": None})
        data.insert({"id": 2, "name": "b", "team": 5})
        assert len(data) == 2
        assert [row["id"] for _, row in data.scan()] == [1, 2]

    def test_pk_index(self, data):
        rowid = data.insert({"id": 7, "name": "x", "team": None})
        assert data.find_by_pk((7,)) == rowid
        assert data.find_by_pk((8,)) is None

    def test_duplicate_pk_rejected(self, data):
        data.insert({"id": 1, "name": "a", "team": None})
        with pytest.raises(IntegrityError, match="primary key"):
            data.insert({"id": 1, "name": "b", "team": None})

    def test_duplicate_unique_rejected(self, data):
        data.insert({"id": 1, "name": "same", "team": None})
        with pytest.raises(IntegrityError, match="unique"):
            data.insert({"id": 2, "name": "same", "team": None})

    def test_null_unique_values_never_collide(self, data):
        data.insert({"id": 1, "name": None, "team": None})
        data.insert({"id": 2, "name": None, "team": None})  # no error
        assert len(data) == 2

    def test_secondary_index_on_fk(self, data):
        data.insert({"id": 1, "name": "a", "team": 5})
        data.insert({"id": 2, "name": "b", "team": 5})
        data.insert({"id": 3, "name": "c", "team": 6})
        assert len(data.find_by_value("team", 5)) == 2
        assert data.has_value("team", 6)
        assert not data.has_value("team", 7)


class TestUpdate:
    def test_update_moves_indexes(self, data):
        rowid = data.insert({"id": 1, "name": "a", "team": 5})
        data.update(rowid, {"team": 6})
        assert not data.has_value("team", 5)
        assert data.has_value("team", 6)

    def test_update_pk(self, data):
        rowid = data.insert({"id": 1, "name": "a", "team": None})
        data.update(rowid, {"id": 9})
        assert data.find_by_pk((9,)) == rowid
        assert data.find_by_pk((1,)) is None

    def test_update_unique_violation_restores_state(self, data):
        data.insert({"id": 1, "name": "a", "team": None})
        rowid = data.insert({"id": 2, "name": "b", "team": None})
        with pytest.raises(IntegrityError):
            data.update(rowid, {"name": "a"})
        # indexes unchanged: the old name is still findable
        assert data.rows[rowid]["name"] == "b"
        assert data.find_by_unique(("name",), ("b",)) == rowid

    def test_update_returns_old_image(self, data):
        rowid = data.insert({"id": 1, "name": "a", "team": None})
        old = data.update(rowid, {"name": "z"})
        assert old["name"] == "a"


class TestDeleteRestore:
    def test_delete_clears_indexes(self, data):
        rowid = data.insert({"id": 1, "name": "a", "team": 5})
        data.delete(rowid)
        assert len(data) == 0
        assert data.find_by_pk((1,)) is None
        assert not data.has_value("team", 5)

    def test_restore_reinstates_everything(self, data):
        rowid = data.insert({"id": 1, "name": "a", "team": 5})
        image = data.delete(rowid)
        data.restore(rowid, image)
        assert data.find_by_pk((1,)) == rowid
        assert data.has_value("team", 5)


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


class Oracle:
    """What a :class:`TableData` version must answer: the rows as a plain
    dict of dicts plus which indexes exist.  Everything a test compares
    is recomputed from those by the obvious loop."""

    def __init__(self):
        self.rows = {}
        self.unique = [("id",), ("name",)]
        self.secondary = {"team"}
        self.ordered = set()
        self.composite = set()

    def freeze(self):
        return copy.deepcopy(self)

    def unique_keys(self, columns):
        keys = {}
        for rowid, row in self.rows.items():
            key = tuple(row[c] for c in columns)
            if None not in key:
                keys[key] = rowid
        return keys

    def groups(self, columns):
        groups = {}
        for rowid in sorted(self.rows):
            key = tuple(self.rows[rowid][c] for c in columns)
            if None not in key:
                groups.setdefault(key, []).append(rowid)
        return groups

    def collides(self, row, rowid=None):
        """Would ``row`` (stored under ``rowid``) break a unique index?"""
        for columns in self.unique:
            key = tuple(row[c] for c in columns)
            if None not in key and self.unique_keys(columns).get(key, rowid) != rowid:
                return True
        return False

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


def assert_matches(data, oracle, rng):
    rows = oracle.rows
    assert list(data.scan()) == [(r, rows[r]) for r in sorted(rows)]
    assert len(data) == data.row_count() == len(rows)
    assert list(data.rows) == sorted(rows)
    for rowid in rows:
        assert data.rows[rowid] == rows[rowid]
    assert data.rows.get(max(rows, default=0) + 1000) is None

    assert data.unique_index_columns() == oracle.unique
    for index in data.unique_indexes:
        keys = oracle.unique_keys(index.columns)
        assert len(index._entries) == len(keys)
        for key, rowid in keys.items():
            assert data.find_by_unique(index.columns, key) == rowid
        assert data.find_by_unique(index.columns, (-1,) * len(index.columns)) is None

    assert set(data.secondary_indexes) == oracle.secondary
    for column in oracle.secondary:
        groups = oracle.groups((column,))
        assert data.distinct_count(column) == len(groups) or column in oracle.ordered
        for (value,), rowids in groups.items():
            found = data.find_by_value(column, value)
            assert list(found) == rowids and len(found) == len(rowids)
            assert data.has_value(column, value)
            assert [r for r, _ in data.rows_for_value(column, value)] == rowids
        assert len(data.find_by_value(column, -1)) == 0
        assert not data.has_value(column, -1)

    assert set(data.composite_indexes) == oracle.composite
    for columns in oracle.composite:
        index = data.composite_indexes[columns]
        groups = oracle.groups(columns)
        assert len(index._entries) == len(groups)
        assert all(index.contains_key(key) for key in groups)
        assert not index.contains_key((-1,) * len(columns))

    assert set(data.ordered_indexes) == oracle.ordered
    for column in oracle.ordered:
        index = data.ordered_indexes[column]
        ascending = oracle.in_order(column)
        assert list(index.ordered_rowids()) == ascending
        descending = oracle.in_order(column, descending=True)
        assert list(index.ordered_rowids(descending=True)) == descending
        values = sorted(
            {row[column] for row in rows.values() if row[column] is not None},
            key=_ordered_key,
        )
        assert data.distinct_count(column) == len(values)
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
    """Seeded random DML, undo-style restores and index DDL over a chain
    of ``clone()``d versions: after every step the working version AND
    every ancestor still answer exactly like their oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_version_stays_equal_to_its_oracle(self, seed):
        rng = random.Random(seed)
        head, oracle = TableData(make_wide_table()), Oracle()
        versions = []  # (frozen TableData, frozen oracle)
        graveyard = []  # deleted (rowid, row), restored later like an undo
        next_id = [1]

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
                    head.insert(row)
                assert head._next_rowid == before + 1
            else:
                oracle.rows[head.insert(row)] = row

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
                assert head.update(rowid, changes) == oracle.rows[rowid]
                oracle.rows[rowid] = new

        def delete():
            rowid = rng.choice(list(oracle.rows))
            assert head.delete(rowid) == oracle.rows[rowid]
            graveyard.append((rowid, oracle.rows.pop(rowid)))

        def restore():
            if graveyard:
                rowid, row = graveyard.pop()
                if not oracle.collides(row):
                    head.restore(rowid, row)
                    oracle.rows[rowid] = row

        def index_ddl():
            kind = rng.choice(["ordered", "ordered", "secondary", "composite", "unique"])
            if kind == "ordered":
                column = rng.choice(["score", "tag"])
                if column in oracle.ordered:
                    head.drop_ordered_index(column)
                    oracle.ordered.discard(column)
                else:
                    head.ensure_ordered_index(column)
                    oracle.ordered.add(column)
            elif kind == "secondary":
                if "a" in oracle.secondary:
                    head.drop_secondary_index("a")
                    oracle.secondary.discard("a")
                else:
                    assert head.ensure_secondary_index("a")
                    oracle.secondary.add("a")
            elif kind == "composite":
                if ("a", "b") in oracle.composite:
                    head.drop_composite_index(("a", "b"))
                    oracle.composite.discard(("a", "b"))
                else:
                    head.ensure_composite_index(("a", "b"))
                    oracle.composite.add(("a", "b"))
            elif ("id", "a") in oracle.unique:
                head.drop_unique_index(("id", "a"), "unique index")
                oracle.unique.remove(("id", "a"))
            else:
                head.add_unique_index(("id", "a"), "unique index")
                oracle.unique.append(("id", "a"))

        for _ in range(3 * PAGE_SIZE):  # several pages of every structure
            insert()
        steps = [insert] * 4 + [update] * 4 + [delete] * 3 + [restore] * 2 + [index_ddl]
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
            data.insert({"id": key, "name": None, "team": 7})
        before = data.find_by_value("team", 7)
        assert isinstance(before, _RowIds) and len(before) == 20_000
        assert all(len(chunk) <= _IDS_CHUNK for chunk in before.chunks)
        data.update(10_000, {"team": 8})
        after = data.find_by_value("team", 7)
        assert list(before) == list(range(1, 20_001))  # the old group is intact
        assert list(after) == [r for r in range(1, 20_001) if r != 10_000]
        rebuilt = [a for a, b in zip(after.chunks, before.chunks) if a is not b]
        assert len(after.chunks) == len(before.chunks) and len(rebuilt) == 1
        data.update(10_000, {"team": 7})  # back into the middle of the group
        assert list(data.find_by_value("team", 7)) == list(before)
        assert data.find_by_value("team", 8) == ()


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
            data.insert({"id": key, "name": None, "team": team_of(key)})
        assert data.copied_entries() == 0  # a bulk load never copies
        return data

    def writes(self, rows, team_of):
        """(pages replaced, entries copied) by one insert, one update of a
        row on a full page and one delete, each on its own clone."""
        frozen = self.loaded(rows, team_of)
        target = PAGE_SIZE + 5  # second row page: full at every size
        results = []
        for write in (
            lambda data: data.insert({"id": rows + 1, "name": None, "team": 3}),
            lambda data: data.update(target, {"name": "renamed"}),
            lambda data: data.delete(target),
        ):
            working = frozen.clone()
            assert working.copied_entries() == 0 and changed_pages(frozen, working) == [0] * 4
            write(working)
            results.append((changed_pages(frozen, working), working.copied_entries()))
        assert len(frozen) == rows and frozen.rows[target]["name"] is None
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
