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

import math


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
        own contiguous range; it resets the descent-path cache.
        """
        self.first_page = first_page
        bases = []
        for width in self.level_widths:
            bases.append(first_page)
            first_page += width
        # First page id of each interior level, widest level first.
        self._level_bases = tuple(bases)
        self._leaf_base = first_page
        # slot -> descent path (see descent_path).  Bounded by n_leaves.
        self._paths = {}

    def descent_path(self, key):
        """Page ids a search for ``key`` touches, in access order.

        The interior pages, from the widest level (just above the
        leaves) up to the one-page root, then the leaf.  A pure function
        of the leaf slot, so paths are cached: hot keys hit the same few
        slots (that is the point of the workload skew) and would rebuild
        the same tuples millions of times otherwise.
        """
        slot = (key % self.n_keys) // self.keys_per_leaf
        path = self._paths.get(slot)
        if path is None:
            pages = []
            level_slot = slot
            for base in self._level_bases:
                level_slot = level_slot // self.fanout
                pages.append(base + level_slot)
            pages.append(self._leaf_base + slot)
            path = self._paths[slot] = tuple(pages)
        return path

    def leaf_page(self, key):
        """Page id of the leaf holding ``key``."""
        return self.descent_path(key)[-1]

    def interior_pages(self, key):
        """Page ids of the interior nodes a search for ``key`` descends."""
        return self.descent_path(key)[:-1]

    def iter_pages(self):
        """All page ids, interior levels first (they should stay hottest)."""
        return iter(range(self.first_page, self.first_page + self.total_pages))

    @property
    def total_pages(self):
        """Leaf + interior page count (the table's working-set footprint)."""
        return self.n_leaves + sum(self.level_widths)

    # ------------------------------------------------------------------
    # Mutation cost
    # ------------------------------------------------------------------

    def insert_cost(self, rng):
        """CPU cost of one clustered-index insert; draws its code path.

        A tree reorganisation (``reorg_cpu_cost``) with
        ``reorg_probability``, a page split (``split_cpu_cost``) with
        ``split_probability``, else a fit in the page
        (``insert_cpu_cost``) — the inherent variance of
        ``row_ins_clust_index_entry_low``.  One ``rng.random()`` draw.
        """
        draw = rng.random()
        if draw < self.reorg_probability:
            return self.reorg_cpu_cost
        if draw < self.reorg_probability + self.split_probability:
            return self.split_cpu_cost
        return self.insert_cpu_cost

    def __repr__(self):
        return "<BTreeIndex %s keys=%d depth=%d pages=%d>" % (
            self.name,
            self.n_keys,
            self.depth,
            self.total_pages,
        )
