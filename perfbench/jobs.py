"""One `microset` command in a fresh process: spawn, time, verdict.

A job fails when its exit code differs from the known answer, its oracle
rejects the output, it prints a traceback, or it runs past the time limit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

JOB_LIMIT_S = 60.0
SPAWNER = Path(__file__).resolve().parent / "spawner.py"


@dataclass(frozen=True)
class Outcome:
    rc: int | None  # None when the job was killed at the time limit
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Job:
    """A command with its known answer.

    ``check`` is the job's oracle: it reads the outcome and the documents
    in the work directory and returns why they are wrong, or None.
    ``outputs`` are the documents the job emits; their sha256 digests are
    pinned per seed, or for every seed when ``seed_free`` holds.
    ``defect`` names the ROADMAP item a job reproduces; such a job is
    expected to fail until that item lands.  A ``once`` job runs once per
    run, after the timed rounds, and stays out of ``wall_s``: it is a slow
    reproduction that would otherwise take most of every round.
    """

    name: str
    group: str
    argv: tuple[str, ...]
    expect: tuple[int, ...] = (0,)
    check: Callable[[Outcome, Path], str | None] | None = None
    outputs: tuple[str, ...] = ()
    seed_free: bool = False
    defect: str | None = None
    once: bool = False


class SetupError(RuntimeError):
    """The program failed to build an artifact a workload needs."""


class Spawner:
    """Runs commands through ``spawner.py``, a small process of its own, so
    that each command's max-RSS is its own and not the harness's."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, cmd: list[str], cwd: Path, limit_s: float = JOB_LIMIT_S) -> Outcome:
        """Run a command to completion in ``cwd``, killing it at the time limit."""
        out_path, err_path = cwd / ".job.stdout", cwd / ".job.stderr"
        request = {"argv": cmd, "cwd": str(cwd), "stdout": str(out_path), "stderr": str(err_path), "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"the spawner stopped with exit code {self.proc.wait()}")
        reply = json.loads(line)
        stdout = out_path.read_bytes().decode(errors="replace")
        stderr = err_path.read_bytes().decode(errors="replace")
        out_path.unlink()
        err_path.unlink()
        rc = None if reply["killed"] else os.waitstatus_to_exitcode(reply["status"])
        return Outcome(rc, reply["wall_s"], reply["rss_kb"], stdout, stderr)

    def close(self) -> None:
        """Stop the spawner, and with it any command still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Program:
    """How to start `microset` from a source checkout.

    ``setup_s`` adds up the wall time of every set-up command run so far.
    Every process is started by ``spawner``; ``close`` stops it.
    """

    def __init__(self, root: Path):
        self.root = root
        self.setup_s = 0.0
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.spawner = Spawner(env)

    def close(self) -> None:
        self.spawner.close()

    def command(self, argv, spans: Path | None = None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "microset", *argv]
        return [sys.executable, str(self.root / "perfbench" / "traced_job.py"), str(spans), "--", *argv]

    def run(self, job: Job, work: Path, spans: Path | None = None, limit_s: float = JOB_LIMIT_S):
        """Run a job and judge it: (outcome, why it failed or None)."""
        for name in job.outputs:
            (work / name).unlink(missing_ok=True)
        outcome = self.spawner.run(self.command(job.argv, spans), work, limit_s)
        return outcome, judge(job, outcome, work)

    def setup(self, argv, work: Path) -> Outcome:
        """Build a set-up artifact; any failure stops the benchmark."""
        outcome = self.spawner.run(self.command(argv), work)
        self.setup_s += outcome.wall_s
        if outcome.rc != 0 or "Traceback" in outcome.stderr:
            raise SetupError(f"set-up command {' '.join(argv)} exited {outcome.rc}: {outcome.stderr.strip()}")
        return outcome


def judge(job: Job, outcome: Outcome, work: Path) -> str | None:
    if outcome.rc is None:
        return "killed at the time limit"
    if "Traceback (most recent call last)" in outcome.stderr:
        return f"traceback ({outcome.stderr.strip().splitlines()[-1]})"
    if outcome.rc not in job.expect:
        return f"exit {outcome.rc}, expected {'/'.join(map(str, job.expect))}"
    if job.check is not None:
        try:
            return job.check(outcome, work)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"oracle could not read the output: {exc!r}"
    return None
