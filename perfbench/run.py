"""Fresh-process benchmark of the `microset` command line.

    python3 perfbench/run.py --workload dust|sets|check --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke          # tiny sizes, every job kind once
    python3 perfbench/run.py --workload W --seed N --pin   # record output digests

Run it from the root of a source checkout.  One client runs a closed loop:
the workload is set up afresh, its job list is run in order, one fresh
`python3 -m microset` process at a time, and this repeats as rounds for
about T seconds.
Every verdict is compared with a known answer and every emitted document
with its pinned sha256.  The last line of standard output is one JSON
object; with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of traced rounds (see README.md for both).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from jobs import JOB_LIMIT_S, Job, Program, SetupError
from inputs import SplitMix64
from layers import METRICS, combine, job_figures, top_self
from workloads import WORKLOADS

PINS = Path(__file__).resolve().parent / "pins.json"
GAUGE = Path(__file__).resolve().parent / "gauge.py"
# a timed round runs the gauge before its first job, after every GAUGE_EVERY_S of job time and at its end
GAUGE_EVERY_S = 1.0
# setup_s is given in seconds at the speed where the gauge takes GAUGE_REF_S, a typical gauge time on a
# shared 2-vCPU Xeon; measured seconds drift with the machine, scaled ones much less
GAUGE_REF_S = 0.2
# every run has at least MIN_ROUNDS timed rounds and MIN_SETUPS set-ups; medians are reported
MIN_ROUNDS = 2
MIN_SETUPS = 3
HARD_STOP_S = 170.0
GROUPS = ("generate", "refute", "hmeasure", "sample", "search", "hausdorff", "verify", "recheck", "gaps")


@dataclass
class Round:
    """One pass over the job list: (job, outcome, problem) per job, its wall
    time, how many emitted documents differ from their pinned digest, the
    wall times of the gauge runs made between its jobs, and the wall time
    in gauge units (0 when the round ran without the gauge)."""

    results: list
    wall_s: float
    changed: int
    gauge_s: list
    per_gauge: float


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def pins_for(pins: dict, key: str, seed: int) -> dict:
    table = pins.get(key, {})
    return {**table.get("any", {}), **table.get(str(seed), {})}


def run_gauge(program: Program, work: Path) -> float:
    outcome = program.spawner.run([sys.executable, str(GAUGE)], work)
    if outcome.rc != 0:
        raise SetupError(f"the speed gauge exited {outcome.rc}: {outcome.stderr.strip()}")
    return outcome.wall_s


def run_round(
    program: Program, jobs: list[Job], work: Path, pinned: dict, stop_at: float, spans: Path | None = None, gauge: bool = False
):
    """Run the jobs in order.  The round's wall time adds up, per job, the
    time from its start to its verdict checked; gauge runs are left out.
    With ``gauge``, each stretch of jobs between two gauge runs is divided
    by the mean of those two gauge times, and the quotients add up to the
    round's time in gauge units."""
    results, changed, gauges = [], 0, []
    wall, stretch, per_gauge = 0.0, 0.0, 0.0

    def close_stretch():
        nonlocal stretch, per_gauge
        gauges.append(run_gauge(program, work))
        if len(gauges) > 1:
            per_gauge += stretch / ((gauges[-2] + gauges[-1]) / 2)
        stretch = 0.0

    if gauge:
        close_stretch()
    for i, job in enumerate(jobs):
        if time.perf_counter() >= stop_at:
            results.append((job, None, "not run: the run reached its time cap"))
            continue
        if gauge and stretch >= GAUGE_EVERY_S:
            close_stretch()
        start = time.perf_counter()
        trace = None if spans is None else spans / f"{i}.json"
        limit = min(JOB_LIMIT_S, stop_at - time.perf_counter())
        outcome, problem = program.run(job, work, trace, limit)
        for out in job.outputs:
            want = pinned.get(f"{job.name}:{out}")
            if want is not None and (work / out).exists() and digest(work / out) != want:
                changed += 1
                problem = problem or f"bytes of {out} differ from the pinned digest"
        results.append((job, outcome, problem))
        took = time.perf_counter() - start
        wall += took
        stretch += took
    if gauge and stretch > 0:
        close_stretch()
    return Round(results, wall, changed, gauges, per_gauge)


def setup(program: Program, workload: str, seed: int, smoke: bool, work: Path):
    """Build the workload in a fresh directory; returns (jobs, seconds).

    The seconds are those of the program's own set-up processes: one
    start-up probe, then the artifacts only the program can build (trees and
    certificates).  The harness's own input building is left out, because
    no change to the program can move it.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    program.setup_s = 0.0
    program.setup(["--help"], work)
    jobs = WORKLOADS[workload](work, SplitMix64(seed).fork(workload), smoke, program)
    return jobs, program.setup_s


def percentile_line(walls: list[float]) -> str:
    """Job count, median, and the highest percentile with ten jobs beyond it."""
    walls = sorted(walls)
    line = f"jobs {len(walls)}, per-job p50 {statistics.median(walls):.4f} s"
    for p in (99.9, 99, 95, 90, 75):
        if len(walls) * (100 - p) / 100 >= 10:
            rank = max(0, math.ceil(p / 100 * len(walls)) - 1)
            return line + f", p{p:g} {walls[rank]:.4f} s"
    return line


def end_to_end(rounds: list[Round], once: Round, setups: list[float]) -> dict:
    """The result's metrics.  Set-ups are few, so setup_s is scaled by the
    median of every gauge run in the rounds, not by the nearest one."""
    gauge = statistics.median(g for r in rounds for g in r.gauge_s)
    return {
        "wall_per_gauge": {"value": statistics.median(r.per_gauge for r in rounds), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups) / gauge * GAUGE_REF_S, "unit": "s"},
        "peak_rss_mb": {
            "value": max(o.rss_kb for r in rounds + [once] for _, o, _ in r.results if o is not None) / 1024,
            "unit": "MB",
        },
    }


def report(workload: str, seed: int, rounds: list[Round], once: Round, setups: list[float]) -> None:
    """Human-readable end-to-end figures, per command group, on stdout."""
    print(f"workload {workload}, seed {seed}: {len(rounds)} rounds, set-up {len(setups)} times")
    each = ", ".join(f"{took:.3f}" for took in setups)
    print(f"  measured set-up {statistics.median(setups):.4f} s (median of {len(setups)}: {each})")
    each = ", ".join(f"{r.wall_s:.3f}" for r in rounds)
    print(f"  measured wall_s {statistics.median(r.wall_s for r in rounds):.4f} s (median of {len(rounds)} rounds: {each})")
    gauges = [g for r in rounds for g in r.gauge_s]
    q = statistics.quantiles(gauges, n=4) if len(gauges) > 1 else gauges * 3
    print(f"  gauge_s  {q[1]:.4f} s (median of {len(gauges)} gauge runs, quartiles {q[0]:.4f} and {q[2]:.4f})")
    for name, metric in end_to_end(rounds, once, setups).items():
        print(f"  {name} {metric['value']:.4f} {metric['unit']}")
    for group in GROUPS:
        sums, walls = [], []
        for r in rounds:
            times = [o.wall_s for job, o, _ in r.results if job.group == group and o is not None]
            sums.append(sum(times))
            walls += times
        if walls:
            print(f"  {group + '_s':<12}{statistics.median(sums):.4f} s per round; {percentile_line(walls)}")
    for job, outcome, _ in once.results:
        if outcome is not None:
            print(f"  {job.name}: {outcome.wall_s:.4f} s, run once after the rounds, not in wall_s")
    everything = rounds + [once]
    attempted = sum(len(r.results) for r in everything)
    failing = sorted({f"{job.name} ({problem})" for r in everything for job, _, problem in r.results if problem})
    failed = sum(1 for r in everything for _, _, problem in r.results if problem)
    print(f"  fail_frac {failed}/{attempted} = {failed / attempted:.4f} ratio")
    for line in failing:
        print(f"    failing: {line}")
    print(f"  bytes_changed {sum(r.changed for r in everything)} count")


def verdict(rounds: list[Round]) -> tuple[bool, int, int]:
    """Correct unless a job fails that does not reproduce a known defect."""
    results = [item for r in rounds for item in r.results]
    failed = [job for job, _, problem in results if problem]
    return all(job.defect for job in failed), len(results), len(failed)


def traced_round(program, jobs, work, pinned, stop_at, log: bool = False) -> tuple[Round, dict]:
    """A round run under traced_job.py; with ``log``, where each job's time went."""
    spans = work / ".spans"
    spans.mkdir(exist_ok=True)
    r = run_round(program, jobs, work, pinned, stop_at, spans)
    figures = []
    for i, (job, outcome, _) in enumerate(r.results):
        path = spans / f"{i}.json"
        if outcome is not None and path.exists():
            fig = job_figures(json.loads(path.read_text()), outcome.wall_s)
            figures.append(fig)
            if log:
                calls = int(fig["geometry.dist_sq.calls"])
                print(f"  traced {job.name}: {outcome.wall_s:.3f} s, dist_sq {calls}; {top_self(fig)}")
    shutil.rmtree(spans)
    return r, combine(figures)


def measure(program: Program, workload: str, seed: int, seconds: int, trace: bool, base: Path) -> int:
    stop_at = time.perf_counter() + HARD_STOP_S
    pins = load_pins()
    pinned = pins_for(pins, workload, seed)
    if str(seed) not in pins.get(workload, {}):
        # stdout too, so the warning sits in the report above the result line
        for stream in (sys.stdout, sys.stderr):
            print(f"warning: no digests pinned for {workload} seed {seed}; only seed-free documents are compared", file=stream)
    # compile the program's bytecode once; users do not pay this per run
    base.mkdir(parents=True, exist_ok=True)
    program.spawner.run(program.command(["--help"]), base)
    work = base / "setup"
    setups: list[float] = []
    plain: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    start = time.perf_counter()
    # set up afresh before every round, so set-up and rounds sample the same
    # stretch of machine time; stop before a round that would end past --seconds
    while time.perf_counter() < stop_at:
        jobs, took = setup(program, workload, seed, False, work)
        setups.append(took)
        timed = [job for job in jobs if not job.once]
        plain.append(run_round(program, timed, work, pinned, stop_at, gauge=True))
        if trace:
            traced.append(traced_round(program, timed, work, pinned, stop_at, log=not traced))
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_ROUNDS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    once = run_round(program, [job for job in jobs if job.once], work, pinned, stop_at)
    while len(setups) < MIN_SETUPS and time.perf_counter() < stop_at:
        setups.append(setup(program, workload, seed, False, work)[1])
    report(workload, seed, plain, once, setups)
    correct, attempted, failed = verdict(plain + [r for r, _ in traced] + [once])
    if trace:
        layer = {name: statistics.median(m[name] for _, m in traced) for name, _, _ in METRICS}
        ratio = statistics.median(r.wall_s for r, _ in traced) / statistics.median(r.wall_s for r in plain)
        layer["cli.trace_overhead_frac"] = ratio - 1
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        metrics = end_to_end(plain, once, setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def smoke(program: Program, base: Path, pin: bool) -> int:
    """Every job kind, oracle and the traced runner once, at tiny sizes."""
    pins = load_pins()
    summary = {"correct": True, "attempted": 0, "failed": 0, "failing": [], "groups": [], "layers": {}}
    for workload in WORKLOADS:
        work = base / workload
        jobs, _ = setup(program, workload, 0, True, work)
        stop_at = time.perf_counter() + HARD_STOP_S
        pinned = pins_for(pins, f"{workload}-smoke", 0)
        plain = run_round(program, jobs, work, pinned, stop_at, gauge=True)
        traced, layer = traced_round(program, jobs, work, pinned, stop_at)
        correct, attempted, failed = verdict([plain, traced])
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        summary["failing"] += sorted({job.name for job, _, problem in plain.results if problem})
        summary["groups"] += sorted({job.group for job in jobs})
        summary["layers"][workload] = layer
        if pin:
            record_pins(pins, f"{workload}-smoke", 0, plain, work)
    if pin:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def record_pins(pins: dict, key: str, seed: int, r: Round, work: Path) -> None:
    bad = [f"{job.name}: {problem}" for job, _, problem in r.results if problem and not job.defect]
    if bad:
        raise SetupError("refusing to pin outputs of failing jobs: " + "; ".join(bad))
    table = pins.setdefault(key, {})
    for job, _, _ in r.results:
        for out in job.outputs:
            if (work / out).exists():
                table.setdefault("any" if job.seed_free else str(seed), {})[f"{job.name}:{out}"] = digest(work / out)


def pin(program: Program, workload: str, seed: int, base: Path) -> int:
    """Run one round and record the digests of its documents in pins.json."""
    pins = load_pins()
    jobs, _ = setup(program, workload, seed, False, base / "pin")
    r = run_round(program, jobs, base / "pin", {}, time.perf_counter() + HARD_STOP_S)
    record_pins(pins, workload, seed, r, base / "pin")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {workload} seed {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "microset" / "cli.py").is_file():
        print("error: run from the root of a microset checkout (src/microset is missing)", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    # turn SIGTERM into SystemExit so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    program = Program(root)
    base = root / ".bench_work" / f"{'smoke' if args.smoke else args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.smoke:
            return smoke(program, base, args.pin)
        if args.pin:
            return pin(program, args.workload, args.seed, base)
        return measure(program, args.workload, args.seed, args.seconds, bool(args.trace), base)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        program.close()
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
