"""Fixed twin of ``lock_discipline_bad.py``: validation writes only its
local scratch, the cache write holds the lock, and the store fan-out is
dispatched from the serial commit phase over disjoint shard slabs."""


class ShardedAccountant:
    def _validate_shard(self, norm, shard):
        # All scratch is local: the shared slab is only read.
        work = self._shards[shard].totals.copy()
        counts = [0] * len(work)
        for i, _ in enumerate(norm):
            counts[i] += 1
        return work, counts

    def _flush_shard(self, shard):
        rows = self._pending[shard]
        self._store.write_rows(rows, rows, rows)

    def _validate_many(self, norm):
        pool = self._ensure_pool()
        return list(pool.map(lambda s: self._validate_shard(norm, s), self.shards))

    def _speculate(self, chunks):
        def peek_chunk(chunk):
            with self._cache_lock:
                self._staged.admit_cache[chunk[0]] = chunk
            return list(chunk)

        return list(self._propose_pool.map(peek_chunk, chunks))

    def commit_fanout(self):
        # The commit phase writes disjoint per-shard slabs by
        # construction; ordering is the serial caller's job.
        pool = self._ensure_pool()
        return list(pool.map(lambda s: self._flush_shard(s), self.shards))
