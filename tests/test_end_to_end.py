"""Whole-binary end-to-end: real het/hee processes over TCP loopback.

The serving side starts with no runpack installed; the code crosses the wire
on first use, exactly as the documented two-terminal workflow."""

import os
import socket
import signal
import subprocess
import sys
import time

import pytest

from conftest import SAMPLES


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_remote_shell_between_two_hee_processes(tmp_path):
    rpk = tmp_path / "shell_world.rpk"
    build = subprocess.run(
        [sys.executable, "-m", "minihello.cli.het",
         os.path.join(SAMPLES, "shell_world"), "-o", str(rpk)],
        capture_output=True)
    assert build.returncode == 0, build.stderr

    workdir = tmp_path / "payload"
    workdir.mkdir()
    (workdir / "data.bin").write_bytes(bytes(range(256)) * 64)
    expected = subprocess.run(f"cat {workdir}/data.bin", shell=True,
                              capture_output=True).stdout

    beta_port = free_port()
    alpha_port = free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "minihello.cli.hee", "--host", "beta",
         "--listen", f"127.0.0.1:{beta_port}", "--serve"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", beta_port), 0.2).close()
                break
            except OSError:
                time.sleep(0.05)
        client = subprocess.run(
            [sys.executable, "-m", "minihello.cli.hee", "--host", "alpha",
             "--listen", f"127.0.0.1:{alpha_port}",
             "--seed", f"127.0.0.1:{beta_port}",
             "--run", str(rpk), "--",
             "beta", "2", "cat", str(workdir / "data.bin")],
            capture_output=True, timeout=40)
        assert client.returncode == 0, client.stderr
        assert client.stdout == expected
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        server.stderr.close()
    assert server.returncode == 0
