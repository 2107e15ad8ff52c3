"""Tests of the benchmark itself: every workload runs and passes its checks,
every checker rejects a wrong output, and the simulated runs repeat."""

from __future__ import annotations

import pytest

import run

run.import_program()

import interp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, WORKLOADS  # noqa: E402


def started(name: str, tmp_path, seed: int = 3):
    w = WORKLOADS[name](seed, str(tmp_path))
    w.prepare()
    w.setup()
    return w


def run_op(w, i: int):
    arg = w.before(i)
    return arg, w.op(i, arg)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    w = started(name, tmp_path)
    try:
        for i in range(max(w.round_ops, 2)):
            arg, out = run_op(w, i)
            w.check(i, arg, out)
        w.check_run()
    finally:
        w.cleanup()


def test_interp_checker_rejects_off_by_one(tmp_path):
    w = started("interp", tmp_path)
    arg, out = run_op(w, 5)
    w.check(5, arg, out)
    with pytest.raises(CheckFailed):
        w.check(5, arg, out + 1)


def test_interp_model_matches_a_hand_computed_kernel():
    c = {"c0": 3, "c1": 1 << 62, "c2": -3, "c3": 0, "m": 2, "r": 0}
    # i=0: s = 5 * 2**62 + 0 wraps to 2**62; i=1: s - s / -3 (truncating)
    s = (1 << 62) + (1 << 62) // 3
    assert interp._arith(c, 2, 2) == s


def test_mesh_checker_rejects_a_missing_greeting(tmp_path):
    w = started("sim-mesh", tmp_path)
    arg, out = run_op(w, 0)
    del w.scen.hosts["h5"].engine.stdout_bytes[:]
    with pytest.raises(CheckFailed, match="h5"):
        w.check(0, arg, out)


def test_mesh_checker_rejects_a_shared_or_reshaped_graph(tmp_path):
    w = started("sim-mesh", tmp_path)
    engine = w.scen.hosts["h0"].engine
    (origin, root), out = run_op(w, 0)
    greetings = {n: bytes(h.engine.stdout_bytes) for n, h in w.scen.hosts.items()}

    def check_with(returned):
        for n, h in w.scen.hosts.items():
            h.engine.stdout_bytes[:] = greetings[n]
        w.check(0, (origin, root), returned)

    check_with(out)
    with pytest.raises(CheckFailed, match="shares"):
        check_with(root)
    engine.deref(out).fields[2] += 1  # one tag changed
    with pytest.raises(CheckFailed, match="isomorphic"):
        check_with(out)


def test_bulk_checker_rejects_one_flipped_byte(tmp_path):
    w = started("sim-bulk", tmp_path)
    try:
        arg, out = run_op(w, 0)
        a = w.scen.hosts["a"].engine
        a.stdout_bytes[12345] ^= 0x01
        with pytest.raises(CheckFailed, match="differs"):
            w.check(0, arg, out)
    finally:
        w.cleanup()


def test_mesh_transcripts_repeat_for_one_seed(tmp_path):
    transcripts = []
    for _ in range(2):
        w = started("sim-mesh", tmp_path, seed=11)
        for i in range(4):
            arg, out = run_op(w, i)
            w.check(i, arg, out)
        transcripts.append(w.scen.transcript().to_bytes())
    assert transcripts[0] == transcripts[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_reports_every_metric(name, monkeypatch):
    cls = WORKLOADS[name]
    monkeypatch.setattr(cls, "round_ops", min(cls.round_ops, 8))
    monkeypatch.setattr(cls, "rss_ops", max(cls.round_ops, 2))
    monkeypatch.setattr(cls, "setups", 1)
    untraced = run.run(name, 2, 0.0, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.run(name, 2, 0.0, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [n for n, _u, _p in tracing.PER_LAYER]
    assert traced["metrics"]["machine.bodies"]["value"] > 0
    # simulated time and wire bytes per op do not depend on the seed
    other = run.run(name, 5, 0.0, trace=True)["metrics"]
    for exact in ("sim_ms_per_op", "wire_kib_per_op"):
        assert other[exact] == traced["metrics"][exact]
    # the tracer leaves no wrapper behind
    assert workloads.het.parse_package.__module__ == "minihello.frontend.parser"
