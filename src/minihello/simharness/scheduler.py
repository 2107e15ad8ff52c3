"""Single-threaded deterministic scheduler over a logical clock.

Events are ordered by (tick, jitter, sequence); jitter is drawn from the
scenario seed, so one seed gives one totally-ordered schedule and different
seeds explore different interleavings of same-tick events. FIFO guarantees
(per queue, per link direction) are structural: events pop work from their
lane's deque rather than naming a specific item.

Events are either work (task steps, deliveries, timeouts, script actions) or
maintenance (periodic pings and gossip). The scheduler runs, in global tick
order, as long as work remains; when only maintenance is left the simulation
is quiescent.

`SimScheduler` is the core of every simulated host's `HostView`, the task
driver that `Node`s run on their event loops too; it is re-exported here.
"""

from __future__ import annotations

import heapq
import itertools
import random

from ..runtime import Future, HostView


class SimScheduler:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.now = 0
        self._heap: list = []
        self._seq = itertools.count()
        self.work_count = 0
        self.dead: set[str] = set()
        self.events_run = 0

    # -------------------------------------------------------------- scheduling

    def schedule(self, delay_ms: int, fn, owner: str, *, maintenance: bool = False):
        entry = [self.now + max(delay_ms, 0), self.rng.random(), next(self._seq),
                 fn, owner, maintenance, 0]  # state 0=pending 1=cancelled 2=run
        heapq.heappush(self._heap, entry)
        if not maintenance:
            self.work_count += 1
        return entry

    def cancel(self, entry) -> None:
        if entry[6] == 0:
            entry[6] = 1
            if not entry[5]:
                self.work_count -= 1

    def read_pipe(self, proc, buf: bytearray, maxn: int) -> Future:
        """Read a command's output into buf at once, blocking until maxn
        bytes or EOF: simulated time does not pass while a command runs."""
        fut = Future()
        try:
            fut.resolve((proc.stdout.readinto(memoryview(buf)[:maxn]), False))
        except OSError:
            fut.resolve((0, True))
        return fut

    def kill(self, owner: str) -> None:
        self.dead.add(owner)

    def view(self, owner: str) -> HostView:
        return HostView(self, owner)

    # ----------------------------------------------------------------- running

    def run_until_quiet(self, max_events: int = 5_000_000) -> None:
        while self.work_count > 0:
            if not self._heap:
                raise RuntimeError("work counted but no events queued")
            entry = heapq.heappop(self._heap)
            tick, _j, _s, fn, owner, maintenance, state = entry
            if state != 0:
                continue
            entry[6] = 2
            if owner in self.dead:
                if not maintenance:
                    self.work_count -= 1
                continue
            if not maintenance:
                self.work_count -= 1
            self.now = max(self.now, tick)
            self.events_run += 1
            if self.events_run > max_events:
                raise RuntimeError("event budget exceeded; runaway simulation")
            fn()


__all__ = ["HostView", "SimScheduler"]
