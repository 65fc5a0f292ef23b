"""Fixed profiler fixture: wall-clock emission only on the mutating drive.

The commit path opens its profiler span on the serial mutating drive; the
pure read path it shares with ``can_charge`` stays telemetry-free.
"""


class Accountant:
    def can_charge(self, keys, budget):
        return self._scan(keys, budget)

    def _scan(self, keys, budget):
        return all(self._rows(keys))

    def _rows(self, keys):
        return [True for _ in keys]

    def charge_many(self, requests):
        # Emission is fine here: charge_many IS the serial mutating drive.
        with self._probe.span("charge.batch", requests=len(requests)):
            with self._profiler.span("charge.validate"):
                committed = [self._scan(keys, budget) for keys, budget in requests]
        return committed
