"""The benchmark's layer tracer still finds every hook it installs.

perfbench/tracer.py wraps functions and `__post_init__` methods by name;
a refactor that renames or removes one makes the traced benchmark fail
every invocation. This runs the tracer as the benchmark does and checks
that its spans record no missing hook, and counts the consensus clips a
chained run makes and the events a CSV conversion writes, and that a
tempo run records its delegation work.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
DATA_DIR = os.path.join(ROOT, "tests", "data")


FIXTURE = os.path.join(DATA_DIR, "fixture.jsonl")
with open(FIXTURE, encoding="utf-8") as _handle:
    FIXTURE_ROWS = sum(1 for line in _handle if line.strip())


@pytest.mark.parametrize("args, counters, span_names", [
    (["attack", "--input", FIXTURE], {"kernels.clip_benchmarks.calls": 0}, set()),
    # Two chained tempos share one clip of the fixed weight matrix. The
    # instance delegates to v1, whose payouts delegator_rewards works out.
    (["tempo", "--input", os.path.join(DATA_DIR, "tempo_instance.json")],
     {"kernels.clip_benchmarks.calls": 1}, {"consensus.delegation"}),
    # A replay clips each subnet's weights once, not once per day.
    (["synth", "--reward-rule", "yuma_replay", "--seed", "5", "--subnets", "2",
      "--wallets", "24", "--days", "3"], {"kernels.clip_benchmarks.calls": 2}, set()),
    # The second step of the benchmark's replay-convert round.
    (["ingest", "--input", FIXTURE, "--format", "csv"],
     {"kernels.clip_benchmarks.calls": 0, "ingest.events_written": FIXTURE_ROWS}, set()),
], ids=["attack", "tempo", "synth-replay", "ingest-csv"])
def test_tracer_has_no_missing_hook(tmp_path, args, counters, span_names):
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, TRACER, str(spans), *args, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(spans.read_text(encoding="utf-8"))
    assert payload["exit"] == 0
    assert payload["missing"] == []
    for name, count in counters.items():
        assert payload["counters"].get(name, 0) == count, name
    assert span_names <= {payload["names"][name] for name in payload["name"]}
