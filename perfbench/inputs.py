"""Seeded input generators for the pipeline benchmark.

Everything here is a pure function of the seed and the shape constants, and
writes plain event or instance files the way an outside tool would. The
generators share no code with `yumalab`, so the benchmark's inputs do not
move when the program's own synth or writers change.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timedelta, timezone

import numpy as np

EVENT_COLUMNS = (
    "timestamp",
    "block_number",
    "netuid",
    "wallet",
    "role",
    "stake",
    "reward",
    "trust",
    "validator_trust",
)

BLOCKS_PER_DAY = 7200
CUTOFF = datetime(2025, 2, 13, tzinfo=timezone.utc)


def _iso(day: datetime) -> str:
    return day.strftime("%Y-%m-%dT%H:%M:%SZ")


class HistoryShape:
    """Shape of the history-report corpus.

    The span starts `days - tail_days` days before the dTAO cutoff, so the
    last `tail_days` days are dropped by the CLI's default cutoff, and it
    crosses a month boundary, so monthly robustness has two windows.
    A quarter of the wallets churn: each is active for a contiguous half of
    the span at a seeded offset. Event count is the same for every seed.
    """

    subnets = 16
    wallets = 48
    validators = 12
    days = 30
    tail_days = 3
    churn_every = 4

    @classmethod
    def start(cls) -> datetime:
        return CUTOFF - timedelta(days=cls.days - cls.tail_days)


def history_events(seed: int) -> dict[int, list[tuple]]:
    """Per-subnet event rows for the history corpus, in file order.

    A row is (day, block, netuid, wallet, role, stake, reward, trust, vtrust)
    with None for an absent score.
    """
    shape = HistoryShape
    start = shape.start()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4849]))
    out: dict[int, list[tuple]] = {}
    half = shape.days // 2
    for netuid in range(shape.subnets):
        n = shape.wallets
        roles = np.array(["validator"] * shape.validators + ["miner"] * (n - shape.validators))
        base = 1.0 + rng.pareto(1.3, n)
        drift = np.exp(np.cumsum(rng.normal(0.0, 0.03, (shape.days, n)), axis=0))
        stakes = base[np.newaxis, :] * drift
        perf = rng.beta(2.0, 5.0, n)
        # Wallets with a missing score report it on roughly a tenth of days.
        score_gaps = rng.random((shape.days, n)) < 0.1
        noise = rng.uniform(0.8, 1.2, (shape.days, n))
        active = np.ones((shape.days, n), dtype=bool)
        for w in range(0, n, shape.churn_every):
            first = int(rng.integers(0, shape.days - half + 1))
            active[:, w] = False
            active[first:first + half, w] = True
        rows = []
        for day in range(shape.days):
            day_start = start + timedelta(days=day)
            mask = active[day]
            total = float(np.sum(stakes[day, mask]))
            for w in np.nonzero(mask)[0]:
                stake = float(stakes[day, w])
                reward = float(100.0 * stake / total * noise[day, w])
                score = None if score_gaps[day, w] else float(perf[w])
                is_miner = roles[w] == "miner"
                rows.append(
                    (
                        day_start,
                        day * BLOCKS_PER_DAY + netuid,
                        netuid,
                        f"sn{netuid:02d}-{'m' if is_miner else 'v'}{w:03d}",
                        str(roles[w]),
                        stake,
                        reward,
                        score if is_miner else None,
                        None if is_miner else score,
                    )
                )
        out[netuid] = rows
    return out


def write_history_corpus(seed: int, directory: str) -> tuple[list[str], dict[int, list[tuple]]]:
    """Write the corpus split by subnet: the first half as JSONL, the rest as CSV."""
    per_subnet = history_events(seed)
    split = HistoryShape.subnets // 2
    jsonl_path = os.path.join(directory, "history_a.jsonl")
    csv_path = os.path.join(directory, "history_b.csv")
    with open(jsonl_path, "w", encoding="utf-8") as handle:
        for netuid in range(split):
            for row in per_subnet[netuid]:
                obj = dict(zip(EVENT_COLUMNS, row))
                obj["timestamp"] = _iso(row[0])
                for key in ("trust", "validator_trust"):
                    if obj[key] is None:
                        del obj[key]
                handle.write(json.dumps(obj, separators=(",", ":")) + "\n")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(",".join(EVENT_COLUMNS) + "\n")
        for netuid in range(split, HistoryShape.subnets):
            for row in per_subnet[netuid]:
                cells = [_iso(row[0])] + [
                    "" if cell is None else (repr(cell) if isinstance(cell, float) else str(cell))
                    for cell in row[1:]
                ]
                handle.write(",".join(cells) + "\n")
    return [jsonl_path, csv_path], per_subnet


class TempoShape:
    """One pre-dTAO subnet: validators x miners, delegations, chained tempos."""

    validators = 64
    miners = 192
    delegations = 256
    tempos = 300


def tempo_instance(seed: int) -> dict:
    """A `yumalab tempo` instance with tie-heavy weights and delegations."""
    shape = TempoShape
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5445]))
    stakes = 1.0 + rng.pareto(1.2, shape.validators)
    quality = rng.beta(2.0, 3.0, shape.miners)
    raw = quality[np.newaxis, :] + rng.normal(0.0, 0.15, (shape.validators, shape.miners))
    # Two-decimal weights make equal-weight runs, which the clip has to
    # resolve; a few validators set no weight on some miners at all.
    weights = np.round(np.clip(raw, 0.0, 1.0), 2)
    weights[rng.random(weights.shape) < 0.05] = 0.0
    owners = np.arange(shape.delegations) % shape.validators
    fractions = rng.uniform(0.01, 0.2, shape.delegations)
    delegations = [
        {
            "validator_id": f"v{int(v):03d}",
            "delegator_id": f"d{int(d):04d}",
            "amount": float(stakes[v] * fractions[d]),
            "take": float(rng.uniform(0.0, 0.3)),
        }
        for d, v in enumerate(owners)
    ]
    return {
        "validators": [{"id": f"v{i:03d}", "stake": float(s)} for i, s in enumerate(stakes)],
        "miners": [f"m{j:03d}" for j in range(shape.miners)],
        "weights": weights.tolist(),
        "params": {"alpha": 0.1, "beta": 0.5, "kappa": 0.5, "tempo_blocks": 360},
        "block_emission": 100.0,
        "delegations": delegations,
        "tempos": shape.tempos,
    }


def write_tempo_instance(seed: int, directory: str) -> str:
    path = os.path.join(directory, "tempo_instance.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tempo_instance(seed), handle)
        handle.write("\n")
    return path
