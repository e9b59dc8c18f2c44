"""A clustered B-tree index cost model.

The tree is modelled by its *shape* (fanout + key count -> depth) rather
than by materialised nodes: what the variance study needs is (a) the
number of levels a search descends — each level being a buffer-pool page
access — and (b) the distribution of insert code paths.  Keys map
deterministically to leaf pages so that hot keys translate into hot
pages for the buffer pool.

Insert paths (``row_ins_clust_index_entry_low``):

- *fits in page* (common): cheap body cost;
- *page split* (probability ~ 1/keys_per_page): allocate + copy halves;
- *tree reorganisation* (rare): split propagates upward.

These paths give the function the inherent, non-pathological variance
the paper reports (9.3% of overall variance in the 128-WH config).
"""

import enum
import math


class InsertOutcome(enum.Enum):
    IN_PAGE = "in_page"
    PAGE_SPLIT = "page_split"
    TREE_REORG = "tree_reorg"


class BTreeIndex:
    """Index over ``n_keys`` with the given fanout.

    Page ids are ints, laid out from ``first_page`` (0 until a
    :class:`~repro.storage.tables.TableCatalog` places the index in its
    range) in :meth:`iter_pages` order: the interior levels from the
    widest (just above the leaves) to the one-page root, then the
    leaves.  ``leaf_page(key)`` returns the page a search for ``key``
    lands on; the (few) interior pages are shared by many keys, so they
    stay hot in the buffer pool.
    """

    def __init__(
        self,
        name,
        n_keys,
        fanout=100,
        keys_per_leaf=64,
        level_cpu_cost=1.5,
        insert_cpu_cost=4.0,
        split_cpu_cost=60.0,
        reorg_cpu_cost=400.0,
        split_probability=None,
        reorg_probability=0.002,
    ):
        if n_keys <= 0:
            raise ValueError("n_keys must be positive")
        self.name = name
        self.n_keys = n_keys
        self.fanout = fanout
        self.keys_per_leaf = keys_per_leaf
        self.level_cpu_cost = level_cpu_cost
        self.insert_cpu_cost = insert_cpu_cost
        self.split_cpu_cost = split_cpu_cost
        self.reorg_cpu_cost = reorg_cpu_cost
        self.split_probability = (
            split_probability
            if split_probability is not None
            else 1.0 / keys_per_leaf
        )
        self.reorg_probability = reorg_probability
        self.n_leaves = max(1, int(math.ceil(n_keys / float(keys_per_leaf))))
        # Interior page counts per level, from just above the leaves up
        # to the one-page root: each level is ceil(width below / fanout).
        widths = []
        width = self.n_leaves
        while width > 1:
            width = -(-width // fanout)
            widths.append(width)
        self.level_widths = tuple(widths)
        # Depth counts the levels *above* the leaf level.
        self.depth = len(widths)
        self.place(0)

    # ------------------------------------------------------------------
    # Page mapping
    # ------------------------------------------------------------------

    def place(self, first_page):
        """Number this index's pages from ``first_page`` upwards.

        Called by the catalog, before any lookup, to give each table its
        own contiguous range; it resets the descent caches.
        """
        self.first_page = first_page
        bases = []
        for width in self.level_widths:
            bases.append(first_page)
            first_page += width
        # First page id of each interior level, widest level first.
        self._level_bases = tuple(bases)
        self._leaf_base = first_page
        # slot -> tuple of interior page ids (see interior_pages).
        self._path_cache = {}
        # slot -> full descent path (interior pages + leaf), for callers
        # that walk the whole path at once.  Bounded by n_leaves.
        self._full_path_cache = {}

    def leaf_page(self, key):
        """Page id of the leaf holding ``key``."""
        return self._leaf_base + (key % self.n_keys) // self.keys_per_leaf

    def interior_pages(self, key):
        """Page ids of the interior nodes a search for ``key`` descends.

        Pure function of the leaf slot, so descents are cached: hot keys
        hit the same few slots (that is the point of the workload skew)
        and rebuild the same path tuples millions of times otherwise.
        The cache is bounded by ``n_leaves``.
        """
        slot = (key % self.n_keys) // self.keys_per_leaf
        pages = self._path_cache.get(slot)
        if pages is None:
            path = []
            level_slot = slot
            for base in self._level_bases:
                level_slot = level_slot // self.fanout
                path.append(base + level_slot)
            pages = self._path_cache[slot] = tuple(path)
        return pages

    def iter_pages(self):
        """All page ids, interior levels first (they should stay hottest)."""
        return iter(range(self.first_page, self.first_page + self.total_pages))

    @property
    def total_pages(self):
        """Leaf + interior page count (the table's working-set footprint)."""
        return self.n_leaves + sum(self.level_widths)

    # ------------------------------------------------------------------
    # Mutation cost generators
    # ------------------------------------------------------------------

    def insert_body(self, rng):
        """Generator: the variable-path body of a clustered-index insert.

        Evaluates to the :class:`InsertOutcome` taken (the inherent
        variance of ``row_ins_clust_index_entry_low``).
        """
        draw = rng.random()
        if draw < self.reorg_probability:
            yield self.reorg_cpu_cost
            return InsertOutcome.TREE_REORG
        if draw < self.reorg_probability + self.split_probability:
            yield self.split_cpu_cost
            return InsertOutcome.PAGE_SPLIT
        yield self.insert_cpu_cost
        return InsertOutcome.IN_PAGE

    def __repr__(self):
        return "<BTreeIndex %s keys=%d depth=%d pages=%d>" % (
            self.name,
            self.n_keys,
            self.depth,
            self.total_pages,
        )
