"""Golden output digests: pins the exact bytes every subcommand writes.

Criterion 10 only compares a run with its rerun, so a refactor could shift
numbers without any test failing. This test compares the sha256 of every
output file against `data/golden_digests.json` instead. After an intended
output change, regenerate the digests and explain the change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from yumalab.cli import run as run_cli

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DIGESTS_PATH = os.path.join(DATA_DIR, "golden_digests.json")
FIXTURE = os.path.join(DATA_DIR, "fixture.jsonl")
TEMPO_INSTANCE = os.path.join(DATA_DIR, "tempo_instance.json")

# The eight invocations of acceptance criterion 10, plus a yuma_replay synth
# corpus, which drives the consensus clip on non-trivial weight matrices.
INVOCATIONS = {
    "ingest": ["ingest", "--input", FIXTURE],
    "metrics": ["metrics", "--input", FIXTURE],
    "attack": ["attack", "--input", FIXTURE],
    "tempo": ["tempo", "--input", TEMPO_INSTANCE],
    "sweep": ["sweep", "--input", FIXTURE, "--scheme", "composite"],
    "frontier": ["frontier", "--input", FIXTURE],
    "robustness": ["robustness", "--input", FIXTURE],
    "synth": ["synth", "--seed", "5", "--subnets", "2", "--wallets", "12", "--days", "3"],
    "synth_replay": ["synth", "--reward-rule", "yuma_replay", "--seed", "5",
                     "--subnets", "2", "--wallets", "24", "--days", "3"],
}


def output_digests(name: str, out_dir) -> dict[str, str]:
    """Run one invocation into out_dir and hash every file it writes."""
    code = run_cli(INVOCATIONS[name] + ["--out", str(out_dir)])
    assert code == 0, f"{name} exited with {code}"
    digests = {}
    for file_name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, file_name), "rb") as handle:
            digests[file_name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _expected() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_invocation_has_digests():
    assert sorted(_expected()) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_bytes_match_golden_digests(name, tmp_path):
    assert output_digests(name, tmp_path / name) == _expected()[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = {name: output_digests(name, os.path.join(root, name))
                 for name in sorted(INVOCATIONS)}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS_PATH}\n")
