"""Translator and engine CLI tests: flags, exit codes, atomic output."""

import os
import subprocess
import sys

import pytest

from minihello.cli import het, hee
from minihello.cli.config import (ConfigError, build_engine_config,
                                  parse_config_text)
from minihello.engine.engine import EngineConfig
from minihello.security import READ, EXEC

from conftest import SAMPLES


class TestHet:
    def test_compiles_hello_world(self, tmp_path, capsys):
        out = tmp_path / "hello.rpk"
        code = het.main([os.path.join(SAMPLES, "hello_world"), "-o", str(out)])
        assert code == 0
        assert out.exists()
        from minihello.runpack import load_file
        assert load_file(str(out)).package == "Hello_world"

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = het.main([os.path.join(SAMPLES, "hello_world")])
        assert code == 0
        assert (tmp_path / "Hello_world.rpk").exists()

    def test_diagnostics_exit_one_no_output(self, tmp_path, capsys):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "good.hlo").write_text("package p; class A { }")
        (src / "bad.hlo").write_text("package p; class B { this is not valid")
        out = tmp_path / "p.rpk"
        code = het.main([str(src), "-o", str(out)])
        assert code == 1
        assert not out.exists()  # atomic: nothing written on failure
        err = capsys.readouterr().err
        assert "bad.hlo" in err and "error" in err

    def test_diagnostic_format(self, tmp_path, capsys):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "u.hlo").write_text("package p; class A { public void f() { x = 1; } }")
        code = het.main([str(src)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        # path:line:col: severity: message
        assert err.startswith(str(src / "u.hlo") + ":")
        parts = err.split(":", 4)
        assert int(parts[1]) >= 1 and int(parts[2]) >= 1
        assert parts[3].strip() == "error"

    def test_empty_dir_exit_one(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        assert het.main([str(src)]) == 1
        assert "no sources" in capsys.readouterr().err

    def test_missing_dir_exit_two(self, capsys):
        assert het.main(["/definitely/not/there"]) == 2

    def test_failed_compile_leaves_prior_output_untouched(self, tmp_path):
        out = tmp_path / "keep.rpk"
        assert het.main([os.path.join(SAMPLES, "hello_world"), "-o", str(out)]) == 0
        original = out.read_bytes()
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "b.hlo").write_text("package q; class Broken {")
        assert het.main([str(bad), "-o", str(out)]) == 1
        assert out.read_bytes() == original

    def test_console_script_subprocess(self, tmp_path):
        out = tmp_path / "s.rpk"
        proc = subprocess.run(
            [sys.executable, "-m", "minihello.cli.het",
             os.path.join(SAMPLES, "shell_world"), "-o", str(out)],
            capture_output=True)
        assert proc.returncode == 0
        assert out.exists()


class TestConfig:
    def test_parse_full_config(self):
        sid = bytes(range(16)).hex()
        values = parse_config_text(f"""
host = alpha
listen = 0.0.0.0:7001
seed = 10.0.0.2:7001, 10.0.0.3:7001
primary = true
timeout.call = 5000
ping.interval = 1000
ping.misses = 2
gossip.interval = 250
grant = {sid}:{READ | EXEC}
lockdown = true
stdout = /tmp/out.bin
""")
        config = build_engine_config(values)
        assert config.host_name == "alpha"
        assert config.seeds == ("10.0.0.2:7001", "10.0.0.3:7001")
        assert config.primary
        assert config.call_timeout_ms == 5000
        assert config.grants == ((bytes(range(16)), READ | EXEC),)
        assert config.lockdown

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("wat = 1")

    def test_only_a_host_gives_the_engine_defaults(self):
        assert build_engine_config({"host": "h"}) == EngineConfig(host_name="h")
        assert build_engine_config(parse_config_text("host = h")) == \
            EngineConfig(host_name="h")

    def test_host_required(self):
        with pytest.raises(ConfigError):
            build_engine_config(parse_config_text("listen = :1"))


class TestHee:
    def test_sim_subcommand_runs_topology(self, tmp_path, capsys):
        rpk = tmp_path / "hello.rpk"
        assert het.main([os.path.join(SAMPLES, "hello_world"), "-o", str(rpk)]) == 0
        topo = tmp_path / "t.topo"
        topo.write_text(f"""
host a primary
host b
link a b
run a {rpk}
""")
        code = hee.main(["sim", str(topo)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Hello, world!") == 2
        assert "host a (exit 0)" in out

    def test_config_error_exit_101(self, capsys):
        assert hee.main(["--listen", ":1", "--run", "x.rpk"]) == 101  # no host
        assert hee.main(["--host", "a"]) == 101  # nothing to do
        assert hee.main(["--host", "a", "--run", "/nope.rpk"]) == 101

    def test_no_main_exit_103(self, tmp_path):
        from conftest import compile_text
        from minihello.runpack import serialize
        image = compile_text("package degenerate; class X { }")
        rpk = tmp_path / "nomain.rpk"
        rpk.write_bytes(serialize(image))
        code = hee.main(["--host", "solo", "--listen", "127.0.0.1:0",
                         "--run", str(rpk)])
        assert code == 103

    def test_run_main_exit_code_propagates(self, tmp_path):
        from conftest import compile_text
        from minihello.runpack import serialize
        image = compile_text("""
package rc;
class M { static public int main(char[][] argv) { return parse_int(argv[0]); } }
""")
        rpk = tmp_path / "rc.rpk"
        rpk.write_bytes(serialize(image))
        code = hee.main(["--host", "solo", "--listen", "127.0.0.1:0",
                         "--run", str(rpk), "--", "5"])
        assert code == 5

    def test_listen_failure_exit_102(self, tmp_path):
        from minihello.runpack import serialize
        from conftest import compile_text
        image = compile_text("package z; class M { static public void main() { } }")
        rpk = tmp_path / "z.rpk"
        rpk.write_bytes(serialize(image))
        import socket
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        blocker.listen(1)
        try:
            code = hee.main(["--host", "solo", "--listen", f"127.0.0.1:{port}",
                             "--run", str(rpk)])
            assert code == 102
        finally:
            blocker.close()

    def test_stdout_capture_path(self, tmp_path):
        from conftest import compile_text
        from minihello.runpack import serialize
        image = compile_text("""
package w;
class M { static public void main() { print("captured\\n"); } }
""")
        rpk = tmp_path / "w.rpk"
        rpk.write_bytes(serialize(image))
        capture = tmp_path / "out.bin"
        code = hee.main(["--host", "solo", "--listen", "127.0.0.1:0",
                         "--run", str(rpk), "--stdout", str(capture)])
        assert code == 0
        assert capture.read_bytes() == b"captured\n"


class TestHeeRemoteCommand:
    def test_remote_directory_listing_lands_on_source_stdout(self, tmp_path):
        # the documented usage: run a command on host b, read it on host a
        from minihello.simharness import parse_topology_text, run_scenario
        workdir = tmp_path / "files"
        workdir.mkdir()
        for name in ("one.txt", "two.txt", "three.txt"):
            (workdir / name).write_text(name)
        expected = subprocess.run(f"ls {workdir}", shell=True,
                                  capture_output=True).stdout
        rpk = tmp_path / "shell.rpk"
        assert het.main([os.path.join(SAMPLES, "shell_world"),
                         "-o", str(rpk)]) == 0
        topo = parse_topology_text(f"""
host a primary
host b
link a b
run a {rpk} b 4 ls {workdir}
""")
        t = run_scenario(topo, seed=3)
        assert t.exit_codes["a"] == 0
        assert t.stdout["a"] == expected
        assert t.stdout["b"] == b""


class TestHetWarnings:
    def test_case_fold_warning_printed_but_success(self, tmp_path, capsys):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "w.hlo").write_text("""
package warny;
external class Shell {
    external public Shell() {}
    static public void main() {
        host h = hello("x");
        Shell s = create (h) shell();
    }
}
""")
        out = tmp_path / "warny.rpk"
        assert het.main([str(src), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "shell" in err
        assert out.exists()
