"""The real-time runtime off the network: a `Node`'s engine on its one
event loop thread. Queues run their work in order, a caller blocked on a
future does not stall other queues, and no thread or queue outlives the
request it served. Tests reach the node only through `Node.call` and
`Node.wait`."""

import threading

import pytest

from minihello.engine.engine import EngineConfig, TaskCtx
from minihello.errors import EngineError
from minihello.node import Node
from minihello.runtime import Future, Request
from minihello.stdlib import host_ref
from minihello.values import ClassKey

from conftest import compile_text


@pytest.fixture
def node():
    n = Node(EngineConfig("t"))

    def capture():
        n.engine.capture_stdout = True
        n.engine.stdout_sink = None

    n.call(capture)
    yield n
    n.shutdown()


class TestThreadedLocal:
    def test_run_main_with_barrier_program(self, node):
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
        assert node.wait(node.call(
            lambda: node.engine.run_main(image, []))) == 25

    def test_main_queues_released_after_local_broadcasts(self, node,
                                                          hello_image):
        engine = node.engine
        threads = threading.active_count()
        # eight mains at once, interleaved on the one loop
        futs = node.call(lambda: [engine.run_main(hello_image, [])
                                  for _ in range(8)])
        assert [node.wait(f) for f in futs] == [0] * 8
        assert node.call(lambda: list(engine.queues)) == [engine.service_queue.qid]
        assert node.call(lambda: bytes(engine.stdout_bytes)) \
            == b"Hello, world!\nt:-)\n" * 8
        assert threading.active_count() == threads

    def test_blocked_caller_does_not_stall_other_queues(self, node):
        engine = node.engine
        gate = Future()

        def slow_task():
            yield gate

        def start():
            slow, slow_done, fast = engine.new_queue(label="slow"), Future(), Future()
            engine.scheduler.submit(slow, Request(slow_task, slow_done))
            engine.scheduler.submit(engine.new_queue(label="fast"),
                                    Request(lambda: "ran", fast))
            return slow, slow_done, fast

        slow, slow_done, fast = node.call(start)
        # the fast queue ran while the slow one stayed parked on its future
        assert node.wait(fast) == "ran"
        assert node.call(lambda: slow.busy)
        node.call(lambda: gate.resolve(None))
        node.wait(slow_done)
        assert node.call(slow.idle)

    def test_queue_fifo_under_threads(self, node):
        engine = node.engine
        seen = []

        def submit_all():
            q = engine.new_queue(label="fifo")
            futs = []
            for i in range(50):
                fut = Future()
                engine.scheduler.submit(q, Request(lambda i=i: seen.append(i), fut))
                futs.append(fut)
            return futs[-1]

        node.wait(node.call(submit_all))
        assert seen == list(range(50))

    def test_standalone_engine_remote_ops_unreachable(self, node):
        engine = node.engine

        def submit():
            ctx = TaskCtx(engine.service_queue)
            fut = Future()

            def task():
                yield from engine.invoke(host_ref("elsewhere"), "name", [], ctx)

            engine.scheduler.submit(engine.new_queue(label="x"), Request(task, fut))
            return fut

        with pytest.raises(EngineError) as exc:
            node.wait(node.call(submit))
        assert exc.value.code == "HostUnreachable"

    def test_engine_error_in_a_timer_is_logged(self, node):
        def boom():
            raise EngineError("Timeout", "from a timer")

        node.call(lambda: node.scheduler.call_later(0, boom))
        # the timer ran before this call, which was queued after it
        assert node.call(lambda: list(node.engine.error_log)) == [
            ("Timeout", "timer: from a timer")]


class TestPartitions:
    def test_remote_create_in_unknown_partition_fails(self, counter_image):
        from conftest import mesh_scenario, run_task
        scen = mesh_scenario(["a", "b"], seed=2)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        before = len(eb.objects)

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("remote", "b", 7), [], ctx)
            return ref

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", task)
        assert exc.value.code == "UnknownObject"
        assert len(eb.objects) == before  # no object was made on b

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
