"""The trace writer of `qcsim run` writes the same bytes whether a forked
child writes the later traces or the calling process writes them all, and a
run leaves no child behind, whether it returns or fails."""

import errno
import os
from pathlib import Path

import numpy as np
import pytest

from qcsim import report
from qcsim.cli import main
from qcsim.report import load_report
from qcsim.verification import BlockTraces

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "blocking_session.ini")


def recorded_forks(monkeypatch) -> list[int]:
    """Patch `os.fork` to record the pid of each child it starts."""
    forks, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def run_on(monkeypatch, cpus, out, config=CONFIG) -> int:
    """`qcsim run --spectrum` into `out` with `cpus` usable and the forked
    writer's break-even forced down to one value; checks that the run
    returns in this process and leaves no child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(report, "_FORK_MIN_VALUES", 1)
    pid = os.getpid()
    code = main(["run", "--config", config, "--spectrum", "--out", str(out)])
    assert os.getpid() == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code


def written(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_forked_and_serial_trace_writers_write_the_same_bytes(tmp_path, monkeypatch):
    forks = recorded_forks(monkeypatch)
    assert run_on(monkeypatch, {0, 1}, tmp_path / "forked") == 0
    assert len(forks) == 1
    assert run_on(monkeypatch, {0}, tmp_path / "serial") == 0
    monkeypatch.delattr(os, "fork")
    assert run_on(monkeypatch, {0, 1}, tmp_path / "no-fork") == 0
    assert len(forks) == 1

    files = written(tmp_path / "forked")
    trace_files = load_report(tmp_path / "forked" / "report.json").trace_files
    assert len(trace_files) >= 2
    assert set(files) == {*trace_files, "spectrum.csv", "report.json"}
    assert files == written(tmp_path / "serial") == written(tmp_path / "no-fork")


def test_a_single_trace_is_written_without_a_fork(tmp_path, monkeypatch):
    forks = recorded_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(report, "_FORK_MIN_VALUES", 1)
    trace = BlockTraces(frame=3, alice=np.arange(4.0), bob=np.arange(4.0) / 3)
    assert report.write_trace_files(tmp_path, (trace,)) == ("trace_frame_0003.csv",)
    assert forks == []
    report.write_trace_csv(tmp_path / "serial.csv", trace)
    assert (tmp_path / "trace_frame_0003.csv").read_bytes() == (
        tmp_path / "serial.csv"
    ).read_bytes()


def test_a_failed_write_in_the_childs_share_exits_1_with_one_error_line(
    tmp_path, monkeypatch, capsys
):
    assert run_on(monkeypatch, {0}, tmp_path / "first") == 0
    trace_files = load_report(tmp_path / "first" / "report.json").trace_files
    # The child writes the last traces; a directory named as the last one
    # makes its write fail.
    blocked = trace_files[-1]
    capsys.readouterr()
    forks = recorded_forks(monkeypatch)
    errors = []
    for cpus in ({0, 1}, {0}):
        out = tmp_path / f"cpus-{len(cpus)}"
        (out / blocked).mkdir(parents=True)
        assert run_on(monkeypatch, cpus, out) == 1
        assert not (out / "report.json").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err.replace(str(out), "<out>"))
    assert len(forks) == 1
    # The forked run names the child's error exactly as the serial run does.
    assert errors[0] == errors[1]
    assert errors[0].startswith("qcsim: error: ")
    assert errors[0].count("\n") == 1 and errors[0].endswith("\n")
    assert blocked in errors[0] and "Traceback" not in errors[0]


def test_a_failed_fork_closes_its_pipe_and_writes_every_trace_here(
    tmp_path, monkeypatch
):
    assert run_on(monkeypatch, {0}, tmp_path / "serial") == 0
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "no process left")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_on(monkeypatch, {0, 1}, tmp_path / "unforked") == 0
    (fds,) = pipes
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert written(tmp_path / "unforked") == written(tmp_path / "serial")
