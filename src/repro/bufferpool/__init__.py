"""InnoDB-style buffer pool with a young/old LRU and Lazy LRU Update.

The paper's second MySQL finding (Section 4.1): under memory pressure,
``buf_pool_mutex_enter`` — the mutex protecting the LRU list — becomes a
dominant variance source, because every access that promotes a page to
the head of the young sublist must take the global pool mutex, and
evictions (which in MySQL 5.6 could write a dirty victim while holding
the mutex) make hold times highly variable.

- :mod:`repro.bufferpool.lru` — the split LRU: old sublist holds 3/8 of
  pages, replacement victims come from the old tail, newly read pages
  enter at the old head, and an access to an old-sublist page moves it to
  the young head (``buf_page_make_young``).
- :mod:`repro.bufferpool.pool` — the pool itself: page table, pool mutex,
  miss path (evict + read), and the traced functions the MySQL engine
  exposes to TProfiler.
- :mod:`repro.bufferpool.lazy_lru` — the paper's Lazy LRU Update (LLU,
  Section 6.1): a spin lock with a 0.01 ms bound; on timeout the update
  is deferred to a thread-local backlog processed on the next successful
  acquisition.
"""

from repro.bufferpool.lru import LRUList
from repro.bufferpool.pool import BufferPool, BufferPoolConfig

__all__ = ["BufferPool", "BufferPoolConfig", "LRUList"]
