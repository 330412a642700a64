"""The benchmark's layer tracer still finds every hook it installs.

perfbench/tracer.py wraps functions and `__post_init__` methods by name;
a refactor that renames or removes one makes the traced benchmark fail
every invocation. This runs the tracer as the benchmark does and checks
that its spans record no missing hook, and counts the consensus clips a
chained run makes.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
DATA_DIR = os.path.join(ROOT, "tests", "data")


@pytest.mark.parametrize("args, clip_calls", [
    (["attack", "--input", os.path.join(DATA_DIR, "fixture.jsonl")], 0),
    # Two chained tempos share one clip of the fixed weight matrix.
    (["tempo", "--input", os.path.join(DATA_DIR, "tempo_instance.json")], 1),
    # A replay clips each subnet's weights once, not once per day.
    (["synth", "--reward-rule", "yuma_replay", "--seed", "5", "--subnets", "2",
      "--wallets", "24", "--days", "3"], 2),
], ids=["attack", "tempo", "synth-replay"])
def test_tracer_has_no_missing_hook(tmp_path, args, clip_calls):
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
    assert payload["counters"].get("kernels.clip_benchmarks.calls", 0) == clip_calls
