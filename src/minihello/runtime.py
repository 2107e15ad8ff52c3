"""Execution core shared by the real (threaded) and simulated runtimes.

A task is a generator that yields Futures when it must wait. The scheduler
owns how tasks are driven: the threaded scheduler gives every queue a worker
thread that blocks on yielded futures; the simulator (in simharness) parks
tasks and resumes them as logical-clock events. Queue requests execute
strictly one at a time, in enqueue order.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import EngineError
from .security import CredentialSet

QUEUE_RUNNING = "running"
QUEUE_DRAINING = "draining"
QUEUE_CLOSED = "closed"


class Future:
    """One-shot result container. Resolve/fail wins once; later calls no-op."""

    __slots__ = ("_lock", "_event", "_done", "_value", "_error", "_callbacks")

    def __init__(self):
        self._lock = threading.Lock()
        self._event: threading.Event | None = None
        self._done = False
        self._value = None
        self._error: EngineError | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def done(self) -> bool:
        with self._lock:
            return self._done

    def _finish(self, value, error) -> bool:
        with self._lock:
            if self._done:
                return False
            self._done = True
            self._value = value
            self._error = error
            callbacks = self._callbacks
            self._callbacks = []
            if self._event is not None:
                self._event.set()
        for cb in callbacks:
            cb(self)
        return True

    def resolve(self, value=None) -> bool:
        return self._finish(value, None)

    def fail(self, error: EngineError) -> bool:
        return self._finish(None, error)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        run_now = False
        with self._lock:
            if self._done:
                run_now = True
            else:
                self._callbacks.append(cb)
        if run_now:
            cb(self)

    def result(self):
        with self._lock:
            if not self._done:
                raise RuntimeError("future not resolved")
            if self._error is not None:
                raise self._error
            return self._value

    def wait_blocking(self):
        with self._lock:
            if not self._done:
                if self._event is None:
                    self._event = threading.Event()
                event = self._event
            else:
                event = None
        if event is not None:
            event.wait()
        return self.result()


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

    def __init__(self, qid: int, host: str, creds: CredentialSet):
        self.qid = qid
        self.host = host
        self.creds = creds
        self.state = QUEUE_RUNNING
        self.pending: deque[Request] = deque()
        self.busy = False
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.worker_started = False
        self.step_scheduled = False  # simulator bookkeeping
        self.executed = 0

    def idle(self) -> bool:
        with self.lock:
            return not self.busy and not self.pending


class Scheduler:
    """Interface the engine drives; see ThreadScheduler and the simulator."""

    def now_ms(self) -> int:
        raise NotImplementedError

    def call_later(self, delay_ms: int, fn, *, maintenance: bool = False):
        raise NotImplementedError

    def cancel(self, handle) -> None:
        raise NotImplementedError

    def submit(self, queue: Queue, request: Request) -> None:
        raise NotImplementedError


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


def run_request_blocking(request: Request) -> None:
    """Drive one request to completion, blocking the current thread on
    yielded futures. Used by the threaded scheduler's queue workers."""
    gen = start_request(request)
    if gen is None:
        return
    value, error = None, None
    while True:
        state, out = drive_step(gen, value, error)
        value, error = None, None
        if state == "return":
            request.finish(out)
            return
        if state == "error":
            request.finish(error=out)
            return
        try:
            value = out.wait_blocking()
        except EngineError as err:
            error = err


class _TimerThread(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True, name="mh-timer")
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.heap: list = []
        self.seq = itertools.count()
        self.stopped = False

    def schedule(self, when: float, fn):
        entry = [when, next(self.seq), fn, False]
        with self.cond:
            heapq.heappush(self.heap, entry)
            self.cond.notify()
        return entry

    def cancel(self, entry) -> None:
        with self.cond:
            entry[3] = True

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.cond.notify()

    def run(self) -> None:
        import time
        while True:
            with self.cond:
                if self.stopped:
                    return
                if not self.heap:
                    self.cond.wait(0.5)
                    continue
                when, _, fn, cancelled = self.heap[0]
                now = time.monotonic()
                if when > now:
                    self.cond.wait(min(when - now, 0.5))
                    continue
                heapq.heappop(self.heap)
            if not cancelled:
                try:
                    fn()
                except EngineError:
                    pass


class ThreadScheduler(Scheduler):
    """Real-time scheduler: worker thread per queue, one shared timer thread."""

    def __init__(self):
        import time
        self._time = time
        self._t0 = time.monotonic()
        self._timer = _TimerThread()
        self._timer.start()
        self._threads: list[threading.Thread] = []
        self._stopping = False

    def now_ms(self) -> int:
        return int((self._time.monotonic() - self._t0) * 1000)

    def call_later(self, delay_ms: int, fn, *, maintenance: bool = False):
        return self._timer.schedule(self._time.monotonic() + delay_ms / 1000.0, fn)

    def cancel(self, handle) -> None:
        self._timer.cancel(handle)

    def submit(self, queue: Queue, request: Request) -> None:
        with queue.cond:
            if queue.state == QUEUE_CLOSED:
                raise EngineError("QueueClosed", f"queue {queue.qid} is closed")
            queue.pending.append(request)
            if not queue.worker_started:
                queue.worker_started = True
                thread = threading.Thread(target=self._worker, args=(queue,),
                                          daemon=True,
                                          name=f"mh-q{queue.qid}@{queue.host}")
                self._threads.append(thread)
                thread.start()
            queue.cond.notify()

    def _worker(self, queue: Queue) -> None:
        while True:
            with queue.cond:
                while not queue.pending and queue.state == QUEUE_RUNNING \
                        and not self._stopping:
                    queue.cond.wait(0.2)
                if (self._stopping or queue.state != QUEUE_RUNNING) and not queue.pending:
                    queue.worker_started = False
                    queue.cond.notify_all()
                    return
                request = queue.pending.popleft()
                queue.busy = True
            try:
                run_request_blocking(request)
            finally:
                with queue.cond:
                    queue.busy = False
                    queue.executed += 1
                    queue.cond.notify_all()

    def shutdown(self) -> None:
        self._stopping = True
        self._timer.stop()
