"""Simulator tests: topology files, determinism, deadlock detection."""

import pytest

from minihello.runtime import Future
from minihello.simharness import (Scenario, ScenarioDeadlock, parse_topology_text,
                                  run_scenario)

from conftest import mesh_scenario


class TestTopologyFiles:
    def test_parse_all_line_forms(self):
        topo = parse_topology_text("""
# comment
host a primary
host b
link a b 2
run a pkg.rpk x y
at 100 drop a b
at 200 kill b
""")
        assert topo.hosts == [("a", True), ("b", False)]
        assert topo.links == [("a", "b", 2)]
        assert topo.runs == [("a", "pkg.rpk", ["x", "y"])]
        assert topo.actions == [(100, "drop", ("a", "b")), (200, "kill", ("b",))]

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            parse_topology_text("frobnicate a b")

    def test_link_unknown_host_rejected(self):
        with pytest.raises(ValueError):
            parse_topology_text("host a\nlink a b")

    def test_script_unknown_host_rejected(self):
        with pytest.raises(ValueError):
            parse_topology_text("host a\nat 5 kill b")


class TestDeterminism:
    def test_same_seed_byte_identical_transcripts(self, hello_image):
        def once(seed):
            scen = mesh_scenario(["a", "b", "c"], seed=seed)
            scen.run_main("a", hello_image)
            scen.run()
            return scen.transcript().to_bytes()

        assert once(5) == once(5)
        assert once(5) != once(6)

    def test_run_scenario_from_topology(self, hello_image, tmp_path):
        from minihello.runpack import serialize
        rpk = tmp_path / "hello.rpk"
        rpk.write_bytes(serialize(hello_image))
        topo = parse_topology_text(f"""
host a primary
host b
host c
link a b
link a c
link b c
run a {rpk}
""")
        t1 = run_scenario(topo, seed=9)
        t2 = run_scenario(topo, seed=9)
        assert t1.to_bytes() == t2.to_bytes()
        assert t1.exit_codes["a"] == 0
        for host in ("a", "b", "c"):
            lines = t1.greeting_lines(host)
            assert len(lines) == 2  # greeting + signature line
            assert b"a:-)" in t1.stdout[host]

    def test_scripted_kill_applies(self, hello_image, tmp_path):
        from minihello.runpack import serialize
        rpk = tmp_path / "hello.rpk"
        rpk.write_bytes(serialize(hello_image))
        topo = parse_topology_text(f"""
host a
host b
link a b
run a {rpk}
at 30000 kill b
""")
        t = run_scenario(topo, seed=1)
        assert t.exit_codes["a"] == 0
        assert "b" not in t.neighborhoods["a"]


class TestDeadlockDetection:
    def test_parked_forever_raises(self):
        scen = mesh_scenario(["a"])

        def stuck():
            yield Future()  # nobody will ever resolve this

        scen.submit_task("a", stuck)
        with pytest.raises(ScenarioDeadlock):
            scen.run()

    def test_self_queue_barrier_deadlocks_detected(self, counter_image):
        from minihello.engine.engine import TaskCtx
        from minihello.values import ClassKey
        scen = mesh_scenario(["a"], seed=0, call_timeout_ms=10_000)
        engine = scen.hosts["a"].engine

        def task():
            ctx = TaskCtx(engine.service_queue)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            # a barrier on the queue this task itself occupies can never
            # pass; the configured timeout must surface instead of hanging
            value = yield from engine.queued_eval(qref, lambda: 1, ctx)
            return value

        from minihello.runtime import Request
        fut = Future()
        engine.scheduler.submit(engine.service_queue, Request(task, fut))
        scen.run()
        from minihello.errors import EngineError
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "Timeout"


class TestTranscript:
    def test_frame_log_has_ticks_and_sizes(self, hello_image):
        scen = mesh_scenario(["a", "b"], seed=2)
        scen.run_main("a", hello_image)
        scen.run()
        t = scen.transcript()
        assert t.frames
        for tick, src, dst, kind, size, info in t.frames:
            assert isinstance(tick, int) and tick >= 0
            assert src in ("a", "b") and dst in ("a", "b")
            assert isinstance(size, int)

    def test_events_and_errors_sections_present(self, hello_image):
        scen = mesh_scenario(["a", "b"], seed=2)
        scen.run_main("a", hello_image)
        scen.run()
        t = scen.transcript()
        assert "a" in t.events and "a" in t.errors
