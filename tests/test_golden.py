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
TEMPO_CHAIN_INSTANCE = os.path.join(DATA_DIR, "tempo_chain_instance.json")
TEMPO_NO_MASS_INSTANCE = os.path.join(DATA_DIR, "tempo_no_mass_instance.json")
WIDE = os.path.join(DATA_DIR, "wide.jsonl")

# The eight invocations of acceptance criterion 10, plus a yuma_replay synth
# corpus, which drives the consensus clip on non-trivial weight matrices,
# the other two sweep schemes, weekly metrics and a longer tempo chain whose
# instance has weight ties, an all-zero miner column, a zero-stake validator,
# seeded bonds and a delegator spread over two validators out of order.
# A chain on all-zero weights pins the no-ranking-mass branch: zero miner
# shares, zero validator TAO and a zero delegator payout, with decaying bonds.
# The two CSV invocations pin the bytes the CSV writer produces. The rest
# pin each single-transform frontier, a weekly power-law robustness series,
# a non-default threshold, grid and frequency, and a run with no cutoff.
# The wide fixture is a 160-wallet synth corpus (seed 11, 2 subnets, 3 days),
# so the top-1% set and the whale penalty hold two wallets, plus a subnet
# whose stakes are all zero (one of them -0.0) and whose validators earn
# nothing, and a subnet with tied miner stakes and one validator that
# earns nothing.
INVOCATIONS = {
    "ingest": ["ingest", "--input", FIXTURE],
    "ingest_csv": ["ingest", "--input", FIXTURE, "--format", "csv"],
    "ingest_no_cutoff": ["ingest", "--input", FIXTURE, "--cutoff", "none"],
    "metrics": ["metrics", "--input", FIXTURE],
    "metrics_weekly": ["metrics", "--input", FIXTURE, "--freq", "weekly"],
    "metrics_monthly": ["metrics", "--input", FIXTURE, "--freq", "monthly"],
    "attack": ["attack", "--input", FIXTURE],
    "attack_threshold": ["attack", "--input", FIXTURE, "--threshold", "0.33"],
    "tempo": ["tempo", "--input", TEMPO_INSTANCE],
    "tempo_chain": ["tempo", "--input", TEMPO_CHAIN_INSTANCE],
    "tempo_no_mass": ["tempo", "--input", TEMPO_NO_MASS_INSTANCE],
    "sweep": ["sweep", "--input", FIXTURE, "--scheme", "composite"],
    "sweep_bonus": ["sweep", "--input", FIXTURE, "--scheme", "bonus"],
    "sweep_bonus_grid": ["sweep", "--input", FIXTURE, "--scheme", "bonus", "--grid", "0,0.05,0.1"],
    "sweep_split": ["sweep", "--input", FIXTURE, "--scheme", "split"],
    "frontier": ["frontier", "--input", FIXTURE],
    "frontier_cap": ["frontier", "--input", FIXTURE, "--transform", "cap:88"],
    "frontier_log": ["frontier", "--input", FIXTURE, "--transform", "log"],
    "frontier_power": ["frontier", "--input", FIXTURE, "--transform", "power:0.5"],
    "robustness": ["robustness", "--input", FIXTURE],
    "robustness_weekly_power": ["robustness", "--input", FIXTURE, "--freq", "weekly",
                                "--transform", "power:0.5"],
    "metrics_wide": ["metrics", "--input", WIDE],
    "attack_wide": ["attack", "--input", WIDE],
    "frontier_wide": ["frontier", "--input", WIDE],
    "robustness_wide": ["robustness", "--input", WIDE, "--freq", "daily"],
    "sweep_wide": ["sweep", "--input", WIDE, "--scheme", "split"],
    "synth": ["synth", "--seed", "5", "--subnets", "2", "--wallets", "12", "--days", "3"],
    "synth_csv": ["synth", "--seed", "5", "--subnets", "2", "--wallets", "12", "--days", "3",
                  "--format", "csv"],
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
