"""Unit tests for per-VM handle tables."""

import pytest

from repro.remoting.handles import HandleError, HandleTable


class Thing:
    """An arbitrary host object."""


class TestAllocation:
    def test_allocate_and_lookup(self):
        table = HandleTable("vm-1")
        thing = Thing()
        guest_id = table.allocate(thing)
        assert table.lookup(guest_id) is thing

    def test_ids_are_distinct(self):
        table = HandleTable()
        ids = [table.allocate(Thing()) for _ in range(100)]
        assert len(set(ids)) == 100

    def test_same_object_same_id(self):
        table = HandleTable()
        thing = Thing()
        assert table.allocate(thing) == table.allocate(thing)
        assert len(table) == 1

    def test_allocate_none_rejected(self):
        with pytest.raises(HandleError):
            HandleTable().allocate(None)

    def test_len_and_contains(self):
        table = HandleTable()
        guest_id = table.allocate(Thing())
        assert len(table) == 1
        assert guest_id in table
        assert (guest_id + 1) not in table

    def test_allocated_total_counts_frees_too(self):
        table = HandleTable()
        a = table.allocate(Thing())
        table.free(a)
        table.allocate(Thing())
        assert table.allocated_total == 2
        assert len(table) == 1


class TestLookupErrors:
    def test_unknown_handle(self):
        with pytest.raises(HandleError):
            HandleTable().lookup(0x9999)

    def test_freed_handle(self):
        table = HandleTable()
        guest_id = table.allocate(Thing())
        table.free(guest_id)
        with pytest.raises(HandleError):
            table.lookup(guest_id)

    def test_non_int_handle(self):
        with pytest.raises(HandleError):
            HandleTable().lookup("nope")

    def test_cross_vm_handles_do_not_alias(self):
        table_a = HandleTable("vm-a")
        table_b = HandleTable("vm-b")
        id_a = table_a.allocate(Thing())
        with pytest.raises(HandleError):
            table_b.lookup(id_a)

    def test_lookup_optional_null(self):
        table = HandleTable()
        assert table.lookup_optional(None) is None
        assert table.lookup_optional(0) is None
        thing = Thing()
        assert table.lookup_optional(table.allocate(thing)) is thing

    def test_lookup_list(self):
        table = HandleTable()
        things = [Thing(), Thing()]
        ids = [table.allocate(thing) for thing in things]
        assert table.lookup_list(None) is None
        assert table.lookup_list(ids[::-1]) == things[::-1]
        with pytest.raises(HandleError):
            table.lookup_list([ids[0], 0xDEAD])


class TestReverseAndFree:
    def test_free_returns_object(self):
        table = HandleTable()
        thing = Thing()
        guest_id = table.allocate(thing)
        assert table.free(guest_id) is thing
        assert len(table) == 0

    def test_items_snapshot(self):
        table = HandleTable()
        thing = Thing()
        guest_id = table.allocate(thing)
        assert list(table.items()) == [(guest_id, thing)]

    def test_clear(self):
        table = HandleTable()
        table.allocate(Thing())
        table.clear()
        assert len(table) == 0


class TestMigrationReplay:
    def test_allocate_as_preserves_guest_id(self):
        old = HandleTable("vm-1")
        original = Thing()
        guest_id = old.allocate(original)

        new = HandleTable("vm-1-migrated")
        replacement = Thing()
        new.allocate_as(guest_id, replacement)
        assert new.lookup(guest_id) is replacement

    def test_allocate_as_conflict_rejected(self):
        table = HandleTable()
        guest_id = table.allocate(Thing())
        with pytest.raises(HandleError):
            table.allocate_as(guest_id, Thing())

    def test_live_objects(self):
        table = HandleTable()
        things = [Thing() for _ in range(3)]
        for thing in things:
            table.allocate(thing)
        assert set(map(id, table.live_objects())) == set(map(id, things))
