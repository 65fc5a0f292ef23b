"""Known-bad fixture for the lock-discipline rule.

Three violations: a shared-slab write hidden one call away from the pool
dispatch, a direct overlay write inside a pool callable, and a store
mutator reached through a dispatched helper.
"""


class ShardedAccountant:
    def _validate_shard(self, norm, shard):
        work = self._shards[shard].totals.copy()
        # Finding 1: a worker thread increments the shared per-shard
        # counter slab -- invisible at the dispatch site.
        self._counts[shard] += 1
        return work

    def _flush_shard(self, shard):
        rows = self._pending[shard]
        # Finding 3: a store mutator on a self-rooted receiver, reached
        # through the dispatched helper.
        self._store.write_rows(rows, rows, rows)

    def _validate_many(self, norm):
        pool = self._ensure_pool()
        return list(pool.map(lambda s: self._validate_shard(norm, s), self.shards))

    def _speculate(self, chunks):
        def peek_chunk(chunk):
            # Finding 2: the overlay's cache is written bare from a worker.
            self._staged.admit_cache[chunk[0]] = chunk
            return list(chunk)

        return list(self._propose_pool.map(peek_chunk, chunks))

    def _drain(self):
        pool = self._ensure_pool()
        return list(pool.map(lambda s: self._flush_shard(s), self.shards))
