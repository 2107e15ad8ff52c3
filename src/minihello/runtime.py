"""Execution core shared by the real and the simulated runtime.

A task is a generator that yields Futures when it must wait. `HostView` is
the one task driver: it steps a queue's task until the task yields a Future
that is not done, parks the task, and schedules its next step when that
Future resolves. A HostView's core keeps time: the simulator's
`SimScheduler` runs a logical clock shared by all simulated hosts, and a
`Node`'s `LoopCore` runs the node's asyncio event loop. Queue requests
execute strictly one at a time, in enqueue order. All of a host's state is
touched from one thread only, so nothing here takes a lock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import E_QUEUE_CLOSED, EngineError
from .security import CredentialSet

QUEUE_RUNNING = "running"
QUEUE_CLOSED = "closed"


class Future:
    """One-shot result container. Resolve/fail wins once; later calls no-op."""

    __slots__ = ("_done", "_value", "_error", "_callbacks")

    def __init__(self):
        self._done = False
        self._value = None
        self._error: EngineError | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._done

    def _finish(self, value, error) -> bool:
        if self._done:
            return False
        self._done = True
        self._value = value
        self._error = error
        callbacks = self._callbacks
        self._callbacks = []
        for cb in callbacks:
            cb(self)
        return True

    def resolve(self, value=None) -> bool:
        return self._finish(value, None)

    def fail(self, error: EngineError) -> bool:
        return self._finish(None, error)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self):
        if not self._done:
            raise RuntimeError("future not resolved")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class Request:
    """A unit of queued work: factory() builds the task generator; the
    result or error is delivered through `completion` when present."""

    factory: Callable[[], object]
    completion: Optional[Future] = None
    label: str = ""

    def finish(self, value=None, error: EngineError | None = None) -> None:
        """Deliver the result, or the error when there is one."""
        if self.completion is not None:
            if error is None:
                self.completion.resolve(value)
            else:
                self.completion.fail(error)


class Queue:
    """FIFO execution lane. One request at a time; execution order equals
    enqueue order. Carries the credentials of the work it runs."""

    def __init__(self, qid: int, creds: CredentialSet):
        self.qid = qid
        self.creds = creds
        self.state = QUEUE_RUNNING
        self.pending: deque[Request] = deque()
        self.busy = False
        self.step_scheduled = False  # HostView bookkeeping

    def idle(self) -> bool:
        return not self.busy and not self.pending


def drive_step(gen, value, error):
    """Advance a task generator one step. Returns ('yield', future),
    ('return', result), or ('error', engine_error)."""
    try:
        if error is not None:
            out = gen.throw(error)
        else:
            out = gen.send(value)
    except StopIteration as stop:
        return ("return", stop.value)
    except EngineError as err:
        return ("error", err)
    if not isinstance(out, Future):
        raise AssertionError(f"task yielded a non-future: {out!r}")
    return ("yield", out)


def start_request(request: Request):
    """Call the request's factory. Returns the task generator to drive, or
    None when the request is finished already: the factory raised an
    EngineError, or returned a plain result."""
    try:
        gen = request.factory()
    except EngineError as err:
        request.finish(error=err)
        return None
    if not hasattr(gen, "send"):  # plain function result
        request.finish(gen)
        return None
    return gen


class HostView:
    """The scheduler one host's engine and router see, over a core that
    keeps time. The core provides `now` (ms), `schedule(delay_ms, fn, owner,
    maintenance=...)`, `cancel(handle)`, `read_pipe(proc, buf, maxn)` and the
    `parked` counts; every event this view schedules is tagged with its
    host, so that the simulator's kill-host silences it."""

    def __init__(self, core, owner: str):
        self.core = core
        self.owner = owner

    def now_ms(self) -> int:
        return self.core.now

    def call_later(self, delay_ms: int, fn, *, maintenance: bool = False):
        return self.core.schedule(delay_ms, fn, self.owner,
                                  maintenance=maintenance)

    def cancel(self, handle) -> None:
        self.core.cancel(handle)

    def read_pipe(self, proc, buf: bytearray, maxn: int) -> Future:
        """Read a command's output into the start of buf. A Future of
        (n, err): n is maxn, or less at EOF or on a read error."""
        return self.core.read_pipe(proc, buf, maxn)

    def submit(self, queue: Queue, request: Request) -> None:
        if queue.state == QUEUE_CLOSED:
            raise EngineError(E_QUEUE_CLOSED, f"queue {queue.qid} is closed")
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
        self._kick(queue)
