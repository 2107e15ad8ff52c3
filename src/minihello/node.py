"""Real-time host assembly: engine + router + TCP transport on one event loop.

A `Node` owns one asyncio event loop, run by one thread of its own. The
engine, the router and the transport run only on that thread, driven by the
same `HostView` as a simulated host, over a `LoopCore` in place of the
simulator's clock. Other threads (`hee`, tests, tools) reach a node only
through `Node.call` and `Node.wait`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import sys
import threading
import time

from .engine.engine import Engine, EngineConfig
from .errors import EngineError
from .net.router import Router
from .net.transport import TcpTransport
from .runpack.image import RunpackImage
from .runtime import Future, HostView


class LoopCore:
    """The core of a node's HostView: wall-clock milliseconds, timers on the
    asyncio loop, and command output read as the pipe becomes readable. An
    EngineError that a scheduled callback raises is logged as an engine
    error instead of going to the loop's exception handler."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self.log_error = None  # Engine.log_error, set once the engine exists

    @property
    def now(self) -> int:
        return int(self.loop.time() * 1000)

    def schedule(self, delay_ms: int, fn, owner: str, *, maintenance: bool = False):
        if delay_ms <= 0:
            return self.loop.call_soon(self._run, fn)
        return self.loop.call_later(delay_ms / 1000, self._run, fn)

    def cancel(self, handle) -> None:
        handle.cancel()

    def _run(self, fn) -> None:
        try:
            fn()
        except EngineError as err:
            self.log_error(err.code, f"timer: {err.message}")

    def read_pipe(self, proc, buf: bytearray, maxn: int) -> Future:
        """Read maxn bytes of a command's output into buf, or what comes
        before EOF, as the pipe becomes readable. At EOF the Future resolves
        once the command has exited, polled for so that reaping it does not
        block."""
        fut = Future()
        if maxn == 0:
            fut.resolve((0, False))
            return fut
        fd = proc.stdout.fileno()
        got = 0

        def readable() -> None:
            nonlocal got
            try:
                data = os.read(fd, maxn - got)
            except OSError:
                self.loop.remove_reader(fd)
                fut.resolve((got, True))
                return
            buf[got:got + len(data)] = data
            got += len(data)
            if data and got < maxn:
                return
            self.loop.remove_reader(fd)
            if data:
                fut.resolve((got, False))
            else:
                reap(0.001)

        def reap(delay: float) -> None:
            if proc.poll() is None:  # closed its output but still runs
                self.loop.call_later(delay, reap, min(2 * delay, 0.05))
            else:
                fut.resolve((got, False))

        self.loop.add_reader(fd, readable)
        return fut


class Node:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.loop = asyncio.new_event_loop()
        self.core = LoopCore(self.loop)
        self.scheduler = HostView(self.core, config.host_name)
        self.engine = Engine(config, self.scheduler,
                             incarnation=time.time_ns() & 0xFFFFFFFF)
        self.core.log_error = self.engine.log_error
        self.transport = TcpTransport(self.loop, self.engine.log_error)
        self.router = Router(config.host_name, self.transport, self.scheduler,
                             config, self.engine)
        self._stdout_file = None
        self.engine.capture_stdout = False
        if config.stdout_path:
            self._stdout_file = open(config.stdout_path, "ab")
        self.engine.stdout_sink = self._write_stdout
        self._thread = threading.Thread(target=self.loop.run_forever,
                                        daemon=True,
                                        name=f"mh-loop@{config.host_name}")
        self._thread.start()

    def _write_stdout(self, data) -> None:
        """The engine's stdout sink: write all of `data`, which is valid only
        during the call, to the stdout file or this process's stdout."""
        out = self._stdout_file or sys.stdout.buffer
        out.write(data)
        out.flush()

    def call(self, fn):
        """Run fn() on the node's loop and return its value, or raise the
        exception it raised."""
        done = concurrent.futures.Future()

        def start() -> None:
            try:
                done.set_result(fn())
            except Exception as exc:  # handed to the waiting thread
                done.set_exception(exc)

        self.loop.call_soon_threadsafe(start)
        return done.result()

    def wait(self, fut: Future):
        """Wait until a Future of this node settles: return its result or
        raise its error."""
        done = concurrent.futures.Future()

        def settle(fut: Future) -> None:
            try:
                done.set_result(fut.result())
            except EngineError as err:
                done.set_exception(err)

        self.loop.call_soon_threadsafe(fut.add_callback, settle)
        return done.result()

    def start(self) -> None:
        self.call(self.router.listen)

    @property
    def bound_port(self) -> int | None:
        return getattr(self.transport, "bound_port", None)

    def connect_seeds(self) -> None:
        for seed in self.config.seeds:
            self.wait(self.call(lambda seed=seed: self.router.connect(seed)))

    def run_main(self, image: RunpackImage, argv: list[str]) -> int:
        """Run main, then give the other queues up to 30 s to drain."""
        code = self.wait(self.call(lambda: self.engine.run_main(image, argv)))
        deadline = time.monotonic() + 30
        while not self.call(self.engine.queues_idle) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        return code if isinstance(code, int) else 0

    def shutdown(self) -> None:
        def close() -> None:
            self.router.shutdown()
            self.transport.close()
            for queue in self.engine.queues.values():
                queue.close_exec_handles()

        self.call(close)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()
        if self._stdout_file is not None:
            self._stdout_file.close()


__all__ = ["Node", "EngineError"]
