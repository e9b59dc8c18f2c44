"""Table catalog: lock ids, redo sizing, page footprints."""

import pytest

from repro.storage.tables import Table, TableCatalog


def test_lock_id_uses_key_verbatim():
    table = Table("orders", 100)
    assert table.lock_id(5) == ("orders", 5)
    # Fresh insert keys beyond n_rows get their own lock objects.
    assert table.lock_id(100_000) == ("orders", 100_000)


def test_redo_bytes_by_kind():
    table = Table("t", 10, row_bytes=200)
    assert table.redo_bytes("insert") > table.redo_bytes("update") > 0
    assert table.redo_bytes("select") == 0


def test_catalog_from_schema():
    catalog = TableCatalog.from_schema({"a": 100, "b": 200})
    assert len(catalog) == 2
    assert catalog["a"].n_rows == 100
    assert "b" in catalog
    assert "c" not in catalog


def test_catalog_rejects_duplicates():
    catalog = TableCatalog()
    catalog.add(Table("t", 10))
    with pytest.raises(KeyError):
        catalog.add(Table("t", 10))


def test_total_pages_sums_tables():
    catalog = TableCatalog.from_schema({"a": 10_000, "b": 20_000})
    assert catalog.total_pages == (
        catalog["a"].index.total_pages + catalog["b"].index.total_pages
    )


def test_iter_pages_covers_catalog():
    catalog = TableCatalog.from_schema({"a": 5_000, "b": 7_000})
    pages = list(catalog.iter_pages())
    assert len(pages) == catalog.total_pages
    assert len(set(pages)) == len(pages)


def test_page_ids_are_distinct_ints_covering_the_catalog():
    catalog = TableCatalog()
    catalog.add(Table("a", 5_000))
    catalog.add(Table("b", 7_000, fanout=7, keys_per_leaf=3))
    catalog.add(Table("c", 1))
    ids = catalog.page_ids()
    assert all(type(page_id) is int for page_id in ids)
    assert sorted(ids) == list(range(catalog.total_pages))
    per_table = [list(table.index.iter_pages()) for table in catalog]
    assert [page for pages in per_table for page in pages] == list(ids)


def test_page_ids_shared_by_equal_shapes():
    schema = {"a": 5_000, "b": 7_000}
    first = TableCatalog.from_schema(schema)
    second = TableCatalog.from_schema(schema)
    assert first.page_ids() == tuple(first.iter_pages())
    assert first.page_ids() is second.page_ids()
    first["a"].inserts += 1
    assert second["a"].inserts == 0  # tables stay per catalog
    shared = first.page_ids()
    other = TableCatalog.from_schema({"a": 5_000, "b": 7_001})
    assert other.page_ids() is not shared
    assert other.page_ids() == tuple(other.iter_pages())


def test_minimum_one_row():
    table = Table("empty", 0)
    assert table.n_rows == 1
