"""Known-bad profiler fixture: wall-clock emission on the pure read path.

Linted with a faked relpath inside ``src/repro/core/`` -- the real tree
never sees this file (the engine skips directories named ``fixtures``).
"""


class Accountant:
    def can_charge(self, keys, budget):
        with self._profiler.span("charge.peeked"):  # profiler span on a seed
            return self._scan(keys, budget)

    def _scan(self, keys, budget):
        with self._probe.span("scan.window"):  # tee emission on a reachable helper
            rows = self._rows(keys)
        self._profiler.event("scan.done")  # wall-clock event on the read path
        return all(rows)

    def _rows(self, keys):
        return [True for _ in keys]
