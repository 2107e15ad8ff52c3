"""Queue serialization, the <=> barrier, message posts, and events."""

import pytest

from minihello.engine.engine import TaskCtx
from minihello.errors import EngineError
from minihello.runtime import Future, Request
from minihello.values import CharArray, ClassKey

from conftest import compile_text, mesh_scenario, run_task

COUNTER = ClassKey("qtest", "Counter")


def counter_scenario(counter_image, hosts=("a",), seed=0):
    scen = mesh_scenario(list(hosts), seed=seed)
    for h in hosts:
        scen.hosts[h].engine.install_image(counter_image)
    return scen


class TestQueueOrder:
    def test_fifo_execution_order(self, counter_image):
        scen = counter_scenario(counter_image)
        engine = scen.hosts["a"].engine
        q = engine.new_queue(label="t")
        order = []
        for i in range(10):
            def factory(i=i):
                order.append((i, scen.core.now))
                return None
            engine.scheduler.submit(q, Request(factory))
        scen.run()
        assert [i for i, _ in order] == list(range(10))
        ticks = [t for _, t in order]
        assert ticks == sorted(ticks)  # start times totally ordered

    def test_one_at_a_time(self, counter_image):
        scen = counter_scenario(counter_image)
        engine = scen.hosts["a"].engine
        q = engine.new_queue(label="t")
        active = {"n": 0, "max": 0}

        def task():
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            fut = Future()
            engine.scheduler.call_later(5, lambda: fut.resolve(None))
            yield fut
            active["n"] -= 1

        for _ in range(5):
            engine.scheduler.submit(q, Request(task))
        scen.run()
        assert active["max"] == 1


class TestQueuedEval:
    def test_empty_queue_returns_value_immediately(self, counter_image):
        scen = counter_scenario(counter_image)

        def task(engine, ctx):
            q = yield from engine.create_object(ClassKey("standard", "queue"),
                                                ("partition", 0), [], ctx)
            value = yield from engine.queued_eval(q, lambda: 42, ctx)
            return value

        assert run_task(scen, "a", task) == 42

    def test_barrier_sees_all_prior_posts(self, counter_image):
        scen = counter_scenario(counter_image)

        def task(engine, ctx):
            target = yield from engine.create_object(COUNTER, ("partition", 0),
                                                     [], ctx)
            q = yield from engine.create_object(ClassKey("standard", "queue"),
                                                ("partition", 0), [], ctx)
            for _ in range(20):
                engine.post_message(q, target, "bump", [], ctx)
            yield from engine.queued_eval(q, lambda: 1, ctx)
            return engine.deref(target).fields[0]

        assert run_task(scen, "a", task) == 20

    def test_two_contexts_barrier_closures_in_enqueue_order(self, counter_image):
        scen = counter_scenario(counter_image)
        engine = scen.hosts["a"].engine
        q = engine.new_queue(label="shared")
        engine.alloc_object(ClassKey("standard", "queue"), 0, [q.qid])
        qref = engine.alloc_object(ClassKey("standard", "queue"), 0, [q.qid])
        seen = []
        enqueued = []

        def waiter(tag):
            def task():
                ctx = TaskCtx(engine.new_queue(label=f"w{tag}"))
                enqueued.append(tag)  # submission happens inside queued_eval
                value = yield from engine.queued_eval(
                    qref, lambda: seen.append(tag) or tag, ctx)
                return value
            return task

        f1 = scen.submit_task("a", waiter(1))
        f2 = scen.submit_task("a", waiter(2))
        scen.run()
        assert f1.result() == 1 and f2.result() == 2  # both return own value
        assert seen == enqueued  # closures evaluate in enqueue order

    def test_language_level_barrier_counts_all_messages(self):
        image = compile_text("""
package qlang;
external class T {
    external public T() {}
    public int n;
    public message void bump() { n = n + 1; }
    public external int go(int k) {
        queue q = create queue();
        for (int i = 0; i < k; i++)
            q #> (this, bump());
        int r = q <=> n;
        return r;
    }
    static public int main(char[][] argv) {
        T t = create T();
        return t.go(parse_int(argv[0]));
    }
}
""")
        for seed in range(5):
            scen = mesh_scenario(["a"], seed=seed)
            fut = scen.run_main("a", image, ["37"])
            scen.run()
            assert fut.result() == 37

    def test_remote_barrier_drains_remote_queue(self, counter_image):
        scen = counter_scenario(counter_image, hosts=("a", "b"))

        def task(engine, ctx):
            target = yield from engine.create_object(
                COUNTER, ("remote", "b", None), [], ctx)
            qref = yield from engine.create_object(
                ClassKey("standard", "queue"), ("remote", "b", None), [], ctx)
            for _ in range(8):
                engine.post_message(qref, target, "poke", [], ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            value = yield from engine.invoke(target, "read", [], ctx)
            return value

        assert run_task(scen, "a", task) == 80


class TestMessagePost:
    def test_post_snapshot_taken_at_enqueue(self, counter_image):
        # oracle: a manual copy taken just before the post
        image = compile_text("""
package snap;
external class S {
    external public S() {}
    public char[] got;
    public message void keep(char[] data) { got = data; }
    public external char[] run() {
        queue q = create queue();
        char[] buf = create char[4];
        buf += "abcd";
        q #> (this, keep(buf));
        buf[4] = 'X';
        q <=> 1;
        return got;
    }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a"], seed=0)
        scen.hosts["a"].engine.install_image(image)

        def task(engine, ctx):
            ref = yield from engine.create_object(ClassKey("snap", "S"),
                                                  ("partition", 0), [], ctx)
            out = yield from engine.invoke(ref, "run", [], ctx)
            return bytes(out.data)

        got = run_task(scen, "a", task)
        assert got == b"\x00\x00\x00\x00abcd"  # pre-overwrite snapshot

    def test_runtime_guard_rejects_non_message_post(self, counter_image):
        # the checker stops this at compile time; a hand-built request
        # exercises the engine-level guard
        scen = counter_scenario(counter_image)

        def task(engine, ctx):
            target = yield from engine.create_object(COUNTER, ("partition", 0),
                                                     [], ctx)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            engine.post_message(qref, target, "read", [], ctx)

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "AccessViolation"


class TestRemoteExceptions:
    def test_remote_fault_carries_original_code(self):
        image = compile_text("""
package boom;
external class B {
    external public B() {}
    public external int explode() { int z = 0; return 7 / z; }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a", "b"], seed=0)
        for h in ("a", "b"):
            scen.hosts[h].engine.install_image(image)

        def task(engine, ctx):
            ref = yield from engine.create_object(ClassKey("boom", "B"),
                                                  ("remote", "b", None), [], ctx)
            yield from engine.invoke(ref, "explode", [], ctx)

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "RemoteException"
        assert exc.value.remote_code == "ArithmeticFault"

    def test_non_external_method_rejected_at_runtime(self, counter_image):
        scen = counter_scenario(counter_image, hosts=("a", "b"))

        def task(engine, ctx):
            ref = yield from engine.create_object(COUNTER, ("remote", "b", None),
                                                  [], ctx)
            yield from engine.invoke(ref, "bump", [], ctx)  # bump is not external

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "AccessViolation"


class TestEvents:
    def _fixture(self, counter_image, hosts=("a",), seed=0):
        scen = counter_scenario(counter_image, hosts=hosts, seed=seed)
        engine = scen.hosts[hosts[0]].engine

        def setup(engine, ctx):
            target = yield from engine.create_object(COUNTER, ("partition", 0),
                                                     [], ctx)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            return target, qref

        target, qref = run_task(scen, hosts[0], setup)
        return scen, engine, target, qref

    def test_arity3_two_fills_pending_third_fires_once(self, counter_image):
        image = compile_text("""
package ev;
external class E {
    external public E() {}
    public int total;
    public int calls;
    public message void add3(int a, int b, int c) {
        total = total + a + b + c;
        calls = calls + 1;
    }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a"], seed=0)
        scen.hosts["a"].engine.install_image(image)

        def task(engine, ctx):
            target = yield from engine.create_object(ClassKey("ev", "E"),
                                                     ("partition", 0), [], ctx)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            eid = yield from engine.create_event(qref, target, "add3", 3, ctx)
            s1 = yield from engine.fill_event(eid, 0, 5, ctx)
            s2 = yield from engine.fill_event(eid, 2, 7, ctx)
            mid = engine.deref(target).fields[1]  # calls before completion
            s3 = yield from engine.fill_event(eid, 1, 30, ctx)
            return s1, s2, mid, s3, target

        s1, s2, mid, s3, target = run_task(scen, "a", task)
        assert (s1, s2, s3) == ("pending", "pending", "fired")
        assert mid == 0
        record = scen.hosts["a"].engine.deref(target)
        assert record.fields[0] == 42  # total
        assert record.fields[1] == 1   # fired exactly once

    def test_arity0_fires_at_creation(self, counter_image):
        scen, engine, target, qref = self._fixture(counter_image)

        def task(engine, ctx):
            yield from engine.create_event(qref, target, "bump", 0, ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            return engine.deref(target).fields[0]

        assert run_task(scen, "a", task) == 1

    def test_duplicate_fill_rejected(self, counter_image):
        scen, engine, target, qref = self._fixture(counter_image)

        def task(engine, ctx):
            eid = yield from engine.create_event(qref, target, "bump", 2, ctx)
            yield from engine.fill_event(eid, 0, 1, ctx)
            try:
                yield from engine.fill_event(eid, 0, 2, ctx)
            except EngineError as err:
                return err.code
            return "no error"

        assert run_task(scen, "a", task) == "SlotAlreadyFilled"

    def test_slot_out_of_range_and_unknown_event(self, counter_image):
        scen, engine, target, qref = self._fixture(counter_image)

        def task(engine, ctx):
            eid = yield from engine.create_event(qref, target, "bump", 1, ctx)
            codes = []
            try:
                yield from engine.fill_event(eid, 5, 0, ctx)
            except EngineError as err:
                codes.append(err.code)
            try:
                yield from engine.fill_event(("a", 9999), 0, 0, ctx)
            except EngineError as err:
                codes.append(err.code)
            return codes

        assert run_task(scen, "a", task) == ["SlotOutOfRange", "UnknownEvent"]

    @pytest.mark.parametrize("first", [1, 2])
    def test_racing_final_fills_fire_exactly_once(self, counter_image, first):
        # both orders of the two final fills, driven from two queues
        image_src = """
package ev2;
external class E {
    external public E() {}
    public int calls;
    public message void two(int a, int b) { calls = calls + 1; }
    static public void main() { }
}
"""
        for seed in range(4):
            image = compile_text(image_src)
            scen = mesh_scenario(["a"], seed=seed)
            engine = scen.hosts["a"].engine
            engine.install_image(image)

            def setup(engine, ctx):
                target = yield from engine.create_object(
                    ClassKey("ev2", "E"), ("partition", 0), [], ctx)
                qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                           [engine.service_queue.qid])
                eid = yield from engine.create_event(qref, target, "two", 2, ctx)
                return target, eid

            target, eid = run_task(scen, "a", setup)
            statuses = []

            def filler(slot):
                def task():
                    ctx = TaskCtx(engine.new_queue(label=f"f{slot}"))
                    status = yield from engine.fill_event(eid, slot, slot, ctx)
                    statuses.append(status)
                return task

            order = (0, 1) if first == 1 else (1, 0)
            for slot in order:
                scen.submit_task("a", filler(slot))
            scen.run()
            assert sorted(statuses) == ["fired", "pending"]
            assert engine.deref(target).fields[0] == 1

    def test_remote_event_create_and_fill(self, counter_image):
        scen = counter_scenario(counter_image, hosts=("a", "b"), seed=3)

        def task(engine, ctx):
            target = yield from engine.create_object(
                COUNTER, ("remote", "b", None), [], ctx)
            qref = yield from engine.create_object(
                ClassKey("standard", "queue"), ("remote", "b", None), [], ctx)
            eid = yield from engine.create_event(qref, target, "bump", 1, ctx)
            status = yield from engine.fill_event(eid, 0, None, ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            value = yield from engine.invoke(target, "read", [], ctx)
            return status, value

        status, value = run_task(scen, "a", task)
        assert status == "fired"
        assert value == 1
