"""Pipeline benchmark for yumalab: the real CLI, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload history-report --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload is a round of CLI invocations
(`python3 -m yumalab.cli ...` with `src/` on the path), one child process
at a time, on inputs generated from `--seed`. The benchmark first times CLI
start-up (`--help`) several times, runs one warm-up round, then repeats
timed rounds while they fit in `--seconds`. Every invocation's outputs are
checked: invariants for any seed, and sha256 digests for the default seed.

The digests live in `perfbench/digests.json`, by workload and subcommand.
When outputs change on purpose, run the workload with `--seed 1`: its
record keeps each warm-up output's digest, and
`{s["cmd"]: s["digests"] for s in record["rounds"][0]["samples"]}`
is the workload's new entry.

Host-speed correction: on a shared host the speed of a core can change by
half within seconds (another tenant on the sibling hyperthread), which
moves raw wall times by far more than any bound a code change should be
held to. So the benchmark pins itself and its children to the core that is
fastest at start, and times a fixed pure-Python loop on that core right
before and after each child and, with the child stopped (SIGSTOP/SIGCONT),
every SAMPLE_EVERY_S while it runs. The paused time is left out of the
child's wall time, which is then multiplied by the core's mean speed,
CAL_REFERENCE_S / (mean loop time), with no fitted constant. Every timing
metric (`wall_s`, `items_per_s`, `setup_s` and the per-subcommand walls)
is such a corrected time: the wall time the run would have taken at the
reference core speed. Raw wall times and speeds are kept next to them in
the record; the median raw round wall is printed as `raw_wall_s` and
reported as the per-layer metric `run.raw_wall_s`, so a change that shows
only after the correction can be seen. Traced children are not paused, so
their spans stay whole; their walls get the before/after correction only.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
rounds with rounds where each child runs under `perfbench/tracer.py`, and
prints the per-layer metrics: self time per layer (a span's duration minus
the time its child spans cover, in raw seconds), span counts, exact work
counts, and the tracing overhead (corrected traced round wall minus the
corrected untraced median). End-to-end numbers never come from traced
rounds.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The lines before it give each metric
with its median, quartiles and sample count. The full record (raw
per-invocation samples, per-round values, environment, workload rationale)
goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
DIGESTS = os.path.join(HERE, "digests.json")
STATE = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 1
SETUP_PROBES = 7
# The whole run must end well inside 180 s; a child still running at this
# point is killed and counted as failed.
HARD_LIMIT_S = 150.0

# Calibration loop length and its time on an uncontended 2.1 GHz Xeon core
# (CPython 3.11), the host the bounds in BENCHMARK.json were set on.
CAL_ITERATIONS = 150_000
CAL_REFERENCE_S = 0.009
SAMPLE_EVERY_S = 0.25

SUBCOMMANDS = ("attack", "metrics", "robustness", "frontier", "sweep", "synth", "ingest", "tempo")

# replay-convert corpus: realistic subnets of 64 validators x 192 miners.
REPLAY_SUBNETS = 8
REPLAY_WALLETS = 256
REPLAY_DAYS = 10


@dataclass
class Invocation:
    """One CLI child: its arguments, output directory, check and work items.

    `counters` are the tracer counters a traced run of it must report as
    non-zero; the exact counts are a base for later claims, so a missing
    one fails the invocation instead of reading as 0.
    """

    name: str
    argv: list[str]
    out: str
    check: Callable[[str], Optional[str]]
    items: int
    counters: tuple[str, ...] = ()


@dataclass
class Workload:
    """Rationale and inputs of a workload; its `why` is in BENCHMARK.json."""

    loads: str
    no_effect: str
    item: str
    # (seed, work dir) -> (round dir -> the round's invocations)
    prepare: Callable[[int, str], Callable[[str], list[Invocation]]]


def _history(seed: int, work: str):
    paths, per_subnet = inputs.write_history_corpus(seed, work)
    reference = checks.reference_coalitions(per_subnet)
    events = sum(len(rows) for rows in per_subnet.values())
    commands = (
        ("attack", [], checks.check_attack),
        ("metrics", [], checks.check_metrics),
        ("robustness", [], checks.check_robustness),
        ("frontier", [], checks.check_frontier),
        ("sweep", ["--scheme", "split"], checks.check_sweep),
    )

    def round_(round_dir: str) -> list[Invocation]:
        invocations = []
        for name, extra, check in commands:
            out = os.path.join(round_dir, name)
            invocations.append(
                Invocation(
                    name,
                    [name, "--input", *paths, *extra, "--out", out],
                    out,
                    lambda out, check=check: check(out, reference),
                    events,
                    ("ingest.events_read", "ingest.bytes_read", "cli.report_bytes"),
                )
            )
        return invocations

    return round_


def _replay(seed: int, work: str):
    events = REPLAY_SUBNETS * REPLAY_WALLETS * REPLAY_DAYS

    def round_(round_dir: str) -> list[Invocation]:
        synth_out = os.path.join(round_dir, "synth")
        synth_file = os.path.join(synth_out, "synth.jsonl")
        convert_out = os.path.join(round_dir, "ingest")
        synth_argv = [
            "synth", "--seed", str(seed), "--subnets", str(REPLAY_SUBNETS),
            "--wallets", str(REPLAY_WALLETS), "--validator-fraction", "0.25",
            "--reward-rule", "yuma_replay", "--days", str(REPLAY_DAYS), "--out", synth_out,
        ]
        return [
            Invocation(
                "synth", synth_argv, synth_out, lambda out: checks.check_synth(out, events), events,
                ("ingest.events_written", "ingest.bytes_written",
                 "kernels.clip_benchmarks.calls", "kernels.clip_benchmarks.cells"),
            ),
            Invocation(
                "ingest",
                ["ingest", "--input", synth_file, "--format", "csv", "--out", convert_out],
                convert_out,
                lambda out: checks.check_convert(out, synth_file),
                events,
                ("ingest.events_read", "ingest.bytes_read", "ingest.events_written", "ingest.bytes_written"),
            ),
        ]

    return round_


def _tempo(seed: int, work: str):
    path = inputs.write_tempo_instance(seed, work)
    tempos = inputs.TempoShape.tempos

    def round_(round_dir: str) -> list[Invocation]:
        out = os.path.join(round_dir, "tempo")
        return [
            Invocation(
                "tempo",
                ["tempo", "--input", path, "--out", out],
                out,
                lambda out: checks.check_tempo(out, tempos),
                tempos,
                ("kernels.clip_benchmarks.calls", "kernels.clip_benchmarks.cells", "cli.report_bytes"),
            )
        ]

    return round_


WORKLOADS = {
    "history-report": Workload(
        loads="ingest (load_events, dataset, cutoff, aggregate), model event and snapshot validation, metrics, interventions, sweep",
        no_effect="consensus and kernel changes (clip, bonds, run_tempo) should show no change here",
        item="events",
        prepare=_history,
    ),
    "replay-convert": Workload(
        loads="synth.generate, ingest.save_events, consensus.run_tempo in the replay, ingest.load_events in the convert step",
        no_effect="aggregation (resample, history_snapshots), metrics and sweep changes should show no change here",
        item="events",
        prepare=_replay,
    ),
    "tempo-chain": Workload(
        loads="consensus.run_tempo, consensus.clip with the clip_benchmarks kernel, consensus.bonds, model outcome validation",
        no_effect="ingest, parse and aggregation changes should show no change here",
        item="tempos",
        prepare=_tempo,
    ),
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The caller's environment without YUMALAB_* switches, with src/ on the path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("YUMALAB_")}
    env["PYTHONPATH"] = SRC
    return env


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes on the current core."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def pin_to_fastest_core() -> int:
    """Pin this process (and so its children) to the core where the loop runs fastest now.

    The calibration loop must run where the children run. The host's
    slowdowns come and go per core for minutes at a time, so starting on
    the faster core makes slow stretches rarer.
    """
    times: dict[int, list[float]] = {core: [] for core in os.sched_getaffinity(0)}
    for _ in range(5):
        for core, samples in times.items():
            os.sched_setaffinity(0, {core})
            samples.append(calibration_loop())
    core = min(times, key=lambda c: statistics.median(times[c]))
    os.sched_setaffinity(0, {core})
    return core


class Runner:
    """Runs children one at a time on the calibrated core and keeps their samples."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline

    def spawn(self, argv: list[str], log_path: str, sample_speed: bool = True, **record) -> dict:
        """Run `python3 argv...` to its end; record wall, CPU, peak RSS and exit code.

        With `sample_speed`, the child is also stopped every SAMPLE_EVERY_S
        while the calibration loop runs; the paused time is left out of its
        wall time.
        """
        cals = [calibration_loop()]
        paused = 0.0
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    exited = select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]
                    if not exited and time.perf_counter() > self.deadline:
                        proc.kill()
                        exited = True
                    if exited:
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    if not sample_speed:
                        continue
                    proc.send_signal(signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break
                    stopped = time.perf_counter()
                    cals.append(calibration_loop())
                    proc.send_signal(signal.SIGCONT)
                    paused += time.perf_counter() - stopped
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
        cals.append(calibration_loop())
        speed = CAL_REFERENCE_S / statistics.fmean(cals)
        return {
            **record,
            "wall_s": wall * speed,
            "raw_wall_s": wall,
            "speed": speed,
            "speed_samples": len(cals),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        }


def run_round(runner: Runner, invocations: list[Invocation], round_dir: str, index: int,
              kind: str, expected: Optional[dict]) -> dict:
    """One round: the invocations back to back, then their checks."""
    os.makedirs(round_dir)
    samples = []
    for inv in invocations:
        log = os.path.join(round_dir, f"{inv.name}.log")
        if kind == "traced":
            argv = [TRACER, os.path.join(round_dir, f"{inv.name}.spans.json"), *inv.argv]
        else:
            argv = ["-m", "yumalab.cli", *inv.argv]
        # Pauses would stretch the spans a traced child records.
        samples.append(runner.spawn(argv, log, kind != "traced", round=index, kind=kind, cmd=inv.name))
    for inv, sample in zip(invocations, samples):
        if sample["exit"] != 0:
            with open(os.path.join(round_dir, f"{inv.name}.log"), errors="replace") as log:
                tail = log.read().strip().splitlines()[-1:] or [""]
            sample["error"] = f"exit {sample['exit']}: {tail[0]}"
        else:
            try:
                sample["error"] = inv.check(inv.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                sample["error"] = f"unreadable output: {exc!r}"
            if sample["error"] is None and expected is not None:
                sample["error"] = checks.digest_mismatch(inv.out, expected.get(inv.name, {}))
            if sample["error"] is None and kind == "traced":
                sample["error"] = trace_gaps(os.path.join(round_dir, f"{inv.name}.spans.json"), inv.counters)
        if kind == "warmup":
            sample["digests"] = checks.output_digests(inv.out) if os.path.isdir(inv.out) else {}
    return {
        "index": index,
        "kind": kind,
        "wall_s": sum(s["wall_s"] for s in samples),
        "raw_wall_s": sum(s["raw_wall_s"] for s in samples),
        "items": sum(inv.items for inv in invocations),
        "samples": samples,
        "dir": round_dir,
    }


def trace_gaps(path: str, counters: tuple[str, ...]) -> Optional[str]:
    """Why a traced child's spans cannot be trusted: hooks or counters missing."""
    if not os.path.isfile(path):
        return "no spans written"
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)
    if spans["missing"]:
        return f"tracer found nothing to wrap for {', '.join(spans['missing'])}"
    zero = [name for name in counters if not spans["counters"].get(name)]
    return f"tracer counted no {', '.join(zero)}" if zero else None


def layer_values(round_: dict) -> dict[str, float]:
    """Self time and span count per span name, plus the counters, over a traced round."""
    values: dict[str, float] = {}

    def add(key: str, amount) -> None:
        values[key] = values.get(key, 0) + amount

    for sample in round_["samples"]:
        path = os.path.join(round_["dir"], f"{sample['cmd']}.spans.json")
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)
        names = spans["names"]
        for name, parent, start, end in zip(spans["name"], spans["parent"], spans["start"], spans["end"]):
            add(f"{names[name]}.self_s", (end - start) / 1e9)
            add(f"{names[name]}.calls", 1)
            if parent >= 0:
                add(f"{names[spans['name'][parent]]}.self_s", -(end - start) / 1e9)
        for name, count in spans["counters"].items():
            add(name, count)
    # Share of the traced wall spent in the module layers, outside CLI
    # start-up and the CLI's own glue code.
    modules = sum(v for k, v in values.items()
                  if k.endswith(".self_s") and k not in ("cli.self_s", "cli.import.self_s"))
    values["trace.layer_share"] = modules / round_["raw_wall_s"]
    values["trace.wall_s"] = round_["wall_s"]
    return values


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment() -> dict:
    # The kernel backend is recorded while the yumalab._kernels switch exists.
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy\n"
         "try:\n    from yumalab._kernels import BACKEND as backend\n"
         "except ImportError:\n    backend = None\n"
         "print(json.dumps({'backend': backend, 'python': platform.python_version(), "
         "'numpy': numpy.__version__}))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    env = json.loads(probe.stdout)
    commit = None
    if shutil.which("git"):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    env.update(nproc=os.cpu_count(), machine=platform.machine(), commit=commit)
    return env


def report(args, spec: dict, workload: Workload, setup: list[dict], rounds: list[dict]) -> tuple[dict, dict]:
    """(figures by metric name, result line) for the metrics of this mode."""
    calls = [s for r in rounds for s in r["samples"]]
    failed = sum(1 for s in calls if s["error"])
    untraced = [r for r in rounds if r["kind"] == "untraced"]
    ok_ratio = 1.0 - failed / len(calls)
    figures = {
        "wall_s": summary([r["wall_s"] for r in untraced]),
        "raw_wall_s": summary([r["raw_wall_s"] for r in untraced]),
        "items_per_s": summary([r["items"] / r["wall_s"] for r in untraced]),
        "setup_s": summary([s["wall_s"] for s in setup]),
        "peak_rss_mb": {"median": max(s["maxrss_mb"] for r in rounds if r["kind"] != "traced"
                                      for s in r["samples"]), "n": len(calls)},
        "ok_ratio": {"median": ok_ratio, "n": len(calls)},
        "failed_ratio": {"median": 1.0 - ok_ratio, "n": len(calls)},
    }
    # items_per_s under the name a reader looks for on this workload.
    figures[f"{workload.item}_per_s"] = figures["items_per_s"]
    units = {"raw_wall_s": "s", "failed_ratio": "ratio", f"{workload.item}_per_s": "1/s"}

    if args.trace:
        metrics = spec["per_layer"]
        traced = [r["layers"] for r in rounds if r["kind"] == "traced"]
        for layers in traced:
            layers["trace.overhead_s"] = layers["trace.wall_s"] - figures["wall_s"]["median"]
        figures["run.raw_wall_s"] = figures["raw_wall_s"]
        for name in SUBCOMMANDS:
            walls = [s["wall_s"] for r in untraced for s in r["samples"] if s["cmd"] == name]
            figures[f"cli.{name}.wall_s"] = summary(walls or [0.0])
        for metric in metrics:
            figures.setdefault(metric["name"], summary([layers.get(metric["name"], 0) for layers in traced]))
        shown = [(m["name"], m["unit"]) for m in metrics]
    else:
        metrics = spec["end_to_end"]
        shown = [(m["name"], m["unit"]) for m in metrics] + list(units.items())

    for name, unit in shown:
        s = figures[name]
        quartiles = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
        print(f"{args.workload:15s} {name:32s} {s['median']:12.6g} {unit:6s}{quartiles}  n={s['n']}")
    for sample in calls:
        if sample["error"]:
            print(f"failed: round {sample['round']} {sample['cmd']}: {sample['error']}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]]["median"], "unit": m["unit"]} for m in metrics},
    }
    return figures, result


def measure(args, runner: Runner, workload: Workload, work: str, expected: Optional[dict]):
    """Set-up probes, the warm-up round, then timed rounds while they fit in --seconds."""
    runner.spawn(["-m", "yumalab.cli", "--help"], os.path.join(work, "help.log"))
    setup = [
        runner.spawn(["-m", "yumalab.cli", "--help"], os.path.join(work, "help.log"), kind="setup", cmd="--help")
        for _ in range(SETUP_PROBES)
    ]
    make_round = workload.prepare(args.seed, work)

    def next_round(kind: str) -> dict:
        round_dir = os.path.join(work, f"r{len(rounds)}")
        round_ = run_round(runner, make_round(round_dir), round_dir, len(rounds), kind, expected)
        if kind == "traced":
            round_["layers"] = layer_values(round_)
        shutil.rmtree(round_dir, ignore_errors=True)
        return round_

    rounds: list[dict] = []
    rounds.append(next_round("warmup"))
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    start = time.perf_counter()
    while time.perf_counter() < runner.deadline - 30.0:
        kind = kinds[(len(rounds) - 1) % len(kinds)]
        missing = {k for k in kinds if k not in {r["kind"] for r in rounds}}
        elapsed = time.perf_counter() - start
        if not missing and elapsed + rounds[-1]["raw_wall_s"] > args.seconds:
            break
        rounds.append(next_round(kind))
    return setup, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "yumalab", "cli.py")):
        print(f"error: no yumalab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(DIGESTS, encoding="utf-8") as handle:
        stored = json.load(handle)
    expected = None
    if args.seed == DEFAULT_SEED:
        if args.workload not in stored:
            print(f"error: {DIGESTS} has no digests for {args.workload}", file=sys.stderr)
            return 2
        expected = stored[args.workload]

    core = pin_to_fastest_core()
    workload = WORKLOADS[args.workload]
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        env = {**environment(), "pinned_cpu": core}
        setup, rounds = measure(args, Runner(deadline=started + HARD_LIMIT_S), workload, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures, result = report(args, spec, workload, setup, rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rationale": {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
            "loads": workload.loads,
            "no_effect": workload.no_effect,
        },
        "environment": env,
        "calibration": {"iterations": CAL_ITERATIONS, "reference_s": CAL_REFERENCE_S,
                        "sample_every_s": SAMPLE_EVERY_S},
        "figures": figures,
        "setup_samples": setup,
        "rounds": [{k: v for k, v in r.items() if k != "dir"} for r in rounds],
        "result": result,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(STATE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
