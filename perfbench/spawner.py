"""Start the benchmark's processes from a small process of their own.

    python3 perfbench/spawner.py     # reads requests on stdin, one per line

Linux counts in a process's max-RSS the memory of the process it was
forked from, so a job forked by the harness would report at least the
harness's own size.  This process stays small and does nothing else: for
each request, a JSON object with ``argv``, ``cwd``, ``stdout``,
``stderr`` and ``limit_s``, it forks and execs the command with its own
environment, waits for it, and answers with one JSON line holding
``status`` (as from ``wait4``), ``wall_s``, ``rss_kb`` and ``killed``
(the command ran past ``limit_s`` and was killed).  It exits at the end
of its input.  On SIGTERM it kills the running command, waits for it and
exits.
"""

import json
import os
import signal
import sys
import time

running = {"pid": 0, "killed": False}


def kill_running(*_) -> None:
    if running["pid"]:
        running["killed"] = True
        try:
            os.kill(running["pid"], signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended on its own just now


def stop(*_) -> None:
    kill_running()
    if running["pid"]:
        os.wait4(running["pid"], 0)
    os._exit(143)


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(req["cwd"])
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execv(req["argv"][0], req["argv"])
            finally:
                os._exit(127)
        running.update(pid=pid, killed=False)
        signal.setitimer(signal.ITIMER_REAL, req["limit_s"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        running["pid"] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"status": status, "wall_s": wall, "rss_kb": usage.ru_maxrss, "killed": running["killed"]}


def main() -> int:
    signal.signal(signal.SIGALRM, kill_running)
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
