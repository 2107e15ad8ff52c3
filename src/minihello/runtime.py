"""Execution core shared by the real and the simulated runtime.

A task is a generator that yields Futures when it must wait. `HostView` is
the one task driver: it steps a queue's task until the task yields a Future
that is not done, parks the task, and schedules its next step when that
Future resolves. A HostView's core keeps time: the simulator's
`SimScheduler` runs a logical clock shared by all simulated hosts, and a
`Node`'s `LoopCore` runs the node's asyncio event loop. Queue requests
execute strictly one at a time, in enqueue order. All of a host's state is
touched from one thread only, so nothing here takes a lock.

A task whose calls nest deeper than Python's recursion limit fails with a
StackOverflow fault, as any other fault of the task, and its queue goes on
to the next request: a compiled body calls the static methods of its own
image as Python functions, so a Hello call is a Python call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import E_STACK_OVERFLOW, EngineError
from .security import CredentialSet


def _fault(exc: Exception) -> EngineError:
    """The fault of a task that raised `exc`, an EngineError or a
    RecursionError."""
    if isinstance(exc, RecursionError):
        return EngineError(E_STACK_OVERFLOW,
                           "calls nest deeper than the stack")
    return exc


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

    def finish(self, value=None, error: EngineError | None = None) -> None:
        """Deliver the result, or the error when there is one."""
        if self.completion is not None:
            if error is None:
                self.completion.resolve(value)
            else:
                self.completion.fail(error)


class Queue:
    """FIFO execution lane. One request at a time; execution order equals
    enqueue order. Carries the credentials of the work it runs, and owns
    the commands that work starts: `exec_handles` maps each exec handle to
    its process, and only work on this queue can read it. A queue has no
    closed state: one that nothing reaches any more is simply dropped."""

    def __init__(self, qid: int, creds: CredentialSet):
        self.qid = qid
        self.creds = creds
        self.exec_handles: dict[int, object] = {}  # handle -> Popen
        self.pending: deque[Request] = deque()
        self.busy = False
        self.step_scheduled = False  # HostView bookkeeping

    def idle(self) -> bool:
        return not self.busy and not self.pending

    def close_exec_handles(self) -> None:
        """Close the pipes of the commands this queue still owns, and drop
        their handles."""
        for proc in self.exec_handles.values():
            proc.stdout.close()
            proc.poll()
        self.exec_handles.clear()


class HostView:
    """The scheduler one host's engine and router see, over a core that
    keeps time. The core provides `now` (ms), `schedule(delay_ms, fn, owner,
    maintenance=...)`, `cancel(handle)` and `read_pipe(proc, buf, maxn)`;
    every event this view schedules is tagged with its host, so that the
    simulator's kill-host silences it."""

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
        """Append a request to a queue. Every queue accepts work: the
        engine drops a queue made for one request once that request is
        done, and no other request can name it."""
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
        try:
            gen = request.factory()
        except (EngineError, RecursionError) as exc:
            request.finish(error=_fault(exc))
            self._finish(queue)
            return
        if hasattr(gen, "send"):
            self._advance(queue, request, gen, None, None)
        else:  # a plain function's result
            request.finish(gen)
            self._finish(queue)

    def _advance(self, queue: Queue, request: Request, gen, value, error) -> None:
        """Run the task until it returns, fails with an EngineError, or
        yields a Future that is not done, which parks it."""
        while True:
            try:
                fut = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                value, error = stop.value, None
                break
            except (EngineError, RecursionError) as exc:
                value, error = None, _fault(exc)
                break
            if not isinstance(fut, Future):
                raise AssertionError(f"task yielded a non-future: {fut!r}")
            if not fut.done():
                fut.add_callback(self._resumer(queue, request, gen))
                return
            try:
                value, error = fut.result(), None
            except EngineError as err:
                value, error = None, err
        request.finish(value, error)
        self._finish(queue)

    def _resumer(self, queue: Queue, request: Request, gen):
        def on_ready(fut: Future) -> None:
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
