"""Threaded-scheduler semantics that only matter off the simulator: print
atomicity under real concurrency, no global stall while callers block, and
the queue machinery driven by worker threads."""

import sys
import threading
import time

import pytest

from minihello.engine.engine import Engine, EngineConfig, TaskCtx
from minihello.errors import EngineError
from minihello.runtime import Future, Request, ThreadScheduler
from minihello.stdlib import host_ref
from minihello.values import CharArray, ClassKey

from conftest import compile_text


@pytest.fixture
def engine():
    import random
    scheduler = ThreadScheduler()
    eng = Engine(EngineConfig("t"), scheduler, random.Random(1))
    yield eng
    scheduler.shutdown()


class TestThreadedLocal:
    def test_run_main_with_barrier_program(self, engine):
        image = compile_text("""
package tq;
external class T {
    external public T() {}
    public int n;
    public message void bump() { n = n + 1; }
    public external int go(int k) {
        queue q = create queue();
        for (int i = 0; i < k; i++)
            q #> (this, bump());
        return q <=> n;
    }
    static public int main(char[][] argv) {
        T t = create T();
        return t.go(25);
    }
}
""")
        fut = engine.run_main(image, [])
        assert fut.wait_blocking() == 25

    def test_main_queue_and_its_worker_end_after_a_local_broadcast(
            self, engine, hello_image):
        before = set(engine.scheduler._threads)
        assert engine.run_main(hello_image, []).wait_blocking() == 0
        (worker,) = [t for t in engine.scheduler._threads if t not in before]
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert list(engine.queues) == [engine.service_queue.qid]
        assert bytes(engine.stdout_bytes) == b"Hello, world!\nt:-)\n"

    def test_queue_table_polled_while_workers_release_queues(
            self, engine, hello_image):
        before = set(engine.scheduler._threads)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futs = [engine.run_main(hello_image, []) for _ in range(8)]
            deadline = time.monotonic() + 10
            while not all(f.done() for f in futs):
                engine.queues_idle()  # must not trip over a released queue
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(old)
        assert [f.result() for f in futs] == [0] * 8
        for worker in set(engine.scheduler._threads) - before:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert list(engine.queues) == [engine.service_queue.qid]

    def test_print_atomicity_ten_concurrent_lines(self, engine):
        lines = [f"line-{i:02d}-{'x' * 40}\n".encode() for i in range(10)]
        barrier = threading.Barrier(10)
        threads = []

        def writer(data):
            barrier.wait()
            engine.write_stdout(data)

        for data in lines:
            t = threading.Thread(target=writer, args=(data,))
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        got = bytes(engine.stdout_bytes).split(b"\n")
        got = [g + b"\n" for g in got if g]
        assert sorted(got) == sorted(lines)  # 10 intact lines, any order

    def test_blocked_caller_does_not_stall_other_queues(self, engine):
        gate = Future()
        q_slow = engine.new_queue(label="slow")
        q_fast = engine.new_queue(label="fast")
        done = []

        def slow_task():
            yield gate

        def fast_task():
            done.append(time.monotonic())
            return None

        engine.submit(q_slow, Request(slow_task))
        time.sleep(0.05)
        fast_fut = Future()
        engine.submit(q_fast, Request(fast_task, fast_fut))
        fast_fut.wait_blocking()
        assert done  # fast queue ran while the slow caller stayed blocked
        gate.resolve(None)

    def test_queue_fifo_under_threads(self, engine):
        q = engine.new_queue(label="fifo")
        seen = []
        futs = []
        for i in range(50):
            fut = Future()
            engine.submit(q, Request(lambda i=i: seen.append(i), fut))
            futs.append(fut)
        for fut in futs:
            fut.wait_blocking()
        assert seen == list(range(50))

    def test_standalone_engine_remote_ops_unreachable(self, engine):
        ctx = TaskCtx(engine.service_queue)
        fut = Future()

        def task():
            yield from engine.invoke(host_ref("elsewhere"), "name", [], ctx)

        engine.submit(engine.new_queue(label="x"), Request(task, fut))
        with pytest.raises(EngineError) as exc:
            fut.wait_blocking()
        assert exc.value.code == "HostUnreachable"


class TestPartitions:
    def test_explicit_partition_remote_create(self, counter_image):
        from conftest import mesh_scenario, run_task
        scen = mesh_scenario(["a", "b"], seed=2)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        pid = eb.create_partition()

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("remote", "b", pid), [], ctx)
            return ref

        ref = run_task(scen, "a", task)
        assert ref.partition == pid
        assert ref.oid in eb.partitions[pid].objects

    def test_object_ids_never_reused(self, counter_image):
        from conftest import mesh_scenario
        scen = mesh_scenario(["a"], seed=0)
        engine = scen.hosts["a"].engine
        key = ClassKey("qtest", "Counter")
        engine.install_image(counter_image)
        seen = set()
        for _ in range(100):
            ref = engine.alloc_object(key, 0, [0])
            assert ref.oid not in seen
            seen.add(ref.oid)
