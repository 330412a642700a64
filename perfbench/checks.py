"""Output checks for the pipeline benchmark.

Each check reads one CLI invocation's output directory and returns None when
the outputs are right, or a one-line reason when they are not. The checks
hold for any seed: they recompute what they can from the generated inputs
with small NumPy references that share no code with `yumalab`. For the
default seed, `digest_mismatch` also compares every known output file with
the sha256 digests stored next to the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Optional

import numpy as np

from inputs import CUTOFF, HistoryShape

THRESHOLD = 0.51


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_mismatch(out_dir: str, expected: dict[str, str]) -> Optional[str]:
    """Compare the files named in `expected`; files it does not name are ignored."""
    for name, want in sorted(expected.items()):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return f"{name} is missing"
        if sha256_file(path) != want:
            return f"{name} differs from its stored digest"
    return None


def output_digests(out_dir: str) -> dict[str, str]:
    return {name: sha256_file(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _g9(value: float) -> str:
    return format(value, ".9g")


# ---------------------------------------------------------------------------
# history-report
# ---------------------------------------------------------------------------


def reference_coalitions(per_subnet: dict[int, list[tuple]]) -> dict[int, tuple[int, float]]:
    """(wallet count, coalition fraction) per subnet over the pre-cutoff history.

    The history snapshot holds each wallet's last stake; the fraction is the
    smallest share of wallets whose largest stakes reach THRESHOLD of the total.
    """
    out = {}
    for netuid, rows in per_subnet.items():
        last: dict[str, float] = {}
        for day, _block, _netuid, wallet, _role, stake, *_ in rows:
            if day < CUTOFF:
                last[wallet] = stake
        stakes = np.sort(np.fromiter(last.values(), dtype=np.float64))[::-1]
        cumulative = np.cumsum(stakes)
        m = int(np.argmax(cumulative >= THRESHOLD * cumulative[-1])) + 1
        out[netuid] = (stakes.shape[0], m / stakes.shape[0])
    return out


def check_attack(out_dir: str, reference: dict[int, tuple[int, float]]) -> Optional[str]:
    rows = _read_csv(os.path.join(out_dir, "coalition.csv"))
    if sorted(int(r["netuid"]) for r in rows) != sorted(reference):
        return "coalition.csv does not list every subnet once"
    for row in rows:
        n, fraction = reference[int(row["netuid"])]
        if int(row["n_wallets"]) != n or row["coalition_fraction"] != _g9(fraction):
            return f"coalition for netuid {row['netuid']} differs from the reference"
    return None


def check_metrics(out_dir: str, reference: dict[int, tuple[int, float]]) -> Optional[str]:
    rows = _read_csv(os.path.join(out_dir, "concentration.csv"))
    if len(rows) != 3 * len(reference):
        return f"concentration.csv has {len(rows)} rows, expected {3 * len(reference)}"
    for row in rows:
        if row["role_filter"] == "all" and int(row["n_wallets"]) != reference[int(row["netuid"])][0]:
            return f"wallet count for netuid {row['netuid']} differs from the reference"
        if not 0.0 <= float(row["gini_stake"]) < 1.0:
            return f"gini_stake out of range for netuid {row['netuid']}"
    for name in ("concentration_snapshot_mean.csv", "concentration_summary.csv", "correlations.csv"):
        if not _read_csv(os.path.join(out_dir, name)):
            return f"{name} is empty"
    return None


def check_robustness(out_dir: str, reference: dict[int, tuple[int, float]]) -> Optional[str]:
    payload = _read_json(os.path.join(out_dir, "robustness.json"))
    expected = {
        "daily": HistoryShape.days - HistoryShape.tail_days,
        "weekly": None,
        "monthly": 2,
    }
    series = {entry["freq"]: entry["windows"] for entry in payload["series"]}
    if set(series) != set(expected):
        return f"robustness.json has frequencies {sorted(series)}"
    for freq, count in expected.items():
        windows = series[freq]
        if len(windows) < 2 or (count is not None and len(windows) != count):
            return f"robustness.json has {len(windows)} {freq} windows"
        if any(window["n_subnets"] != len(reference) for window in windows):
            return f"a {freq} window does not cover every subnet"
    return None


def check_frontier(out_dir: str, reference: dict[int, tuple[int, float]]) -> Optional[str]:
    payload = _read_json(os.path.join(out_dir, "frontier.json"))
    identity = [p for p in payload["points"] if p["label"] == "cap:100"]
    if len(identity) != 1:
        return "frontier.json has no single identity point"
    want = float(np.median([fraction for _, fraction in reference.values()]))
    if _g9(identity[0]["median_coalition_fraction"]) != _g9(want):
        return "identity median coalition fraction differs from the reference"
    return None


def check_sweep(out_dir: str, reference: dict[int, tuple[int, float]]) -> Optional[str]:
    payload = _read_json(os.path.join(out_dir, "sweep_summary.json"))
    if len(payload["grid"]) != 21:
        return f"sweep grid has {len(payload['grid'])} points, expected 21"
    for agg in payload["aggregates"]:
        if agg["param"] == 0.0 and (agg["median_d_r_sr"] != 0.0 or agg["median_d_r_pr"] != 0.0):
            return "deltas at the null point are not zero"
    return None


# ---------------------------------------------------------------------------
# replay-convert
# ---------------------------------------------------------------------------


def _jsonl_span(path: str) -> tuple[int, str, str]:
    """(line count, first timestamp, last timestamp) of a non-empty JSONL event file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    return len(lines), json.loads(lines[0])["timestamp"], json.loads(lines[-1])["timestamp"]


def check_synth(out_dir: str, expected_events: int) -> Optional[str]:
    count, _, _ = _jsonl_span(os.path.join(out_dir, "synth.jsonl"))
    if count != expected_events:
        return f"synth.jsonl has {count} lines, expected subnets x wallets x days = {expected_events}"
    return None


def check_convert(out_dir: str, synth_path: str) -> Optional[str]:
    count, first, last = _jsonl_span(synth_path)
    with open(os.path.join(out_dir, "events.csv"), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    body = rows[1:]
    if len(body) != count:
        return f"events.csv has {len(body)} events, the synth output {count}"
    if body[0][0] != first or body[-1][0] != last:
        return "events.csv does not keep the first and last timestamps"
    summary = _read_json(os.path.join(out_dir, "ingest_summary.json"))
    if (summary["events"], summary["first_event"], summary["last_event"]) != (count, first, last):
        return "ingest_summary.json disagrees with the synth output"
    return None


# ---------------------------------------------------------------------------
# tempo-chain
# ---------------------------------------------------------------------------


def check_tempo(out_dir: str, tempos: int) -> Optional[str]:
    payload = _read_json(os.path.join(out_dir, "emission.json"))
    emission = payload["block_emission"]
    paid = (
        payload["owner_amount"]
        + math.fsum(payload["miner_tao"].values())
        + math.fsum(payload["validator_tao"].values())
    )
    # Report values carry 9 significant digits, so allow that much rounding.
    if not math.isclose(paid, emission, rel_tol=1e-7):
        return f"owner + miner + validator TAO = {paid!r}, emission {emission!r}"
    bonds = np.asarray(payload["bonds"], dtype=np.float64)
    if bonds.size == 0 or not np.all((bonds >= 0.0) & (bonds <= 1.0)):
        return "bonds are not all in [0, 1]"
    if payload["tempo_index"] != tempos:
        return f"tempo_index is {payload['tempo_index']}, expected {tempos}"
    return None
