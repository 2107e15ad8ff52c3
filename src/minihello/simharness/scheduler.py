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
"""

from __future__ import annotations

import heapq
import itertools
import random

from ..errors import EngineError
from ..runtime import (Future, Queue, Request, Scheduler, drive_step,
                       start_request)


class SimScheduler:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.now = 0
        self._heap: list = []
        self._seq = itertools.count()
        self.work_count = 0
        self.parked: dict[str, int] = {}
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

    def kill(self, owner: str) -> None:
        self.dead.add(owner)

    def view(self, owner: str) -> "HostView":
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

    def live_parked(self) -> int:
        return sum(n for owner, n in self.parked.items()
                   if owner not in self.dead)


class HostView(Scheduler):
    """The Scheduler interface one host's engine and router see; every event
    it creates is tagged with the host so kill-host silences it."""

    def __init__(self, core: SimScheduler, owner: str):
        self.core = core
        self.owner = owner

    def now_ms(self) -> int:
        return self.core.now

    def call_later(self, delay_ms: int, fn, *, maintenance: bool = False):
        return self.core.schedule(delay_ms, fn, self.owner,
                                  maintenance=maintenance)

    def cancel(self, handle) -> None:
        self.core.cancel(handle)

    def submit(self, queue: Queue, request: Request) -> None:
        if queue.state == "closed":
            raise EngineError("QueueClosed", f"queue {queue.qid} is closed")
        queue.pending.append(request)
        self._kick(queue)

    def _kick(self, queue: Queue) -> None:
        if queue.busy or queue.step_scheduled or not queue.pending:
            return
        queue.step_scheduled = True
        self.core.schedule(0, lambda: self._step(queue), self.owner)

    def _step(self, queue: Queue) -> None:
        queue.step_scheduled = False
        if queue.busy or not queue.pending:
            return
        request = queue.pending.popleft()
        queue.busy = True
        gen = start_request(request)
        if gen is None:
            self._finish(queue)
            return
        self._advance(queue, request, gen, None, None)

    def _advance(self, queue: Queue, request: Request, gen, value, error) -> None:
        while True:
            state, out = drive_step(gen, value, error)
            value, error = None, None
            if state == "return":
                request.finish(out)
                self._finish(queue)
                return
            if state == "error":
                request.finish(error=out)
                self._finish(queue)
                return
            fut: Future = out
            if fut.done():
                try:
                    value = fut.result()
                except EngineError as err:
                    error = err
                continue
            self.core.parked[self.owner] = self.core.parked.get(self.owner, 0) + 1
            fut.add_callback(self._resumer(queue, request, gen))
            return

    def _resumer(self, queue: Queue, request: Request, gen):
        def on_ready(fut: Future) -> None:
            self.core.parked[self.owner] -= 1
            try:
                value, error = fut.result(), None
            except EngineError as err:
                value, error = None, err
            self.core.schedule(
                0, lambda: self._advance(queue, request, gen, value, error),
                self.owner)
        return on_ready

    def _finish(self, queue: Queue) -> None:
        queue.busy = False
        queue.executed += 1
        self._kick(queue)
