"""Storage structures: the clustered B-tree index and table metadata.

Two of the variance sources TProfiler finds in MySQL are *inherent* to
storage (Section 4.1): ``btr_cur_search_to_nth_level`` varies with the
depth the tree must be traversed, and ``row_ins_clust_index_entry_low``
varies with the code path the insert takes (in-page insert vs page
split vs reorganisation).  This package models exactly those cost
shapes, and maps keys to buffer-pool pages so the buffer-pool regime
(2-WH vs 128-WH) determines which accesses hit disk.
"""

from repro.storage.btree import BTreeIndex
from repro.storage.tables import Table, TableCatalog

__all__ = ["BTreeIndex", "Table", "TableCatalog"]
