"""Command-line interface.

Subcommands: ingest, metrics, attack, tempo, sweep, frontier, robustness,
synth. Every subcommand is a deterministic function of its input files and
flags: reruns produce byte-identical outputs. Tabular results are CSV,
summaries are JSON; numbers in reports are written with 9 significant
digits and every output file ends with a newline.

Exit codes: 0 on success, 1 on validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from yumalab._util import format_timestamp, from_epoch_us, parse_timestamp
from yumalab.consensus import BondState, Delegation, run_tempos
from yumalab.ingest import (
    FREQUENCIES,
    Dataset,
    _path_format,
    history_snapshots,
    load_events,
    resample,
    save_events,
)
from yumalab.interventions import TransformSpec
from yumalab.metrics import (
    ROLE_FILTERS,
    concentration_report,
    coalition_fraction,
    correlation_profile,
)
from yumalab.model import EmissionParams, Role, ValidationError, WeightMatrix, _freeze
from yumalab.sweep import (
    SCHEMES,
    default_frontier_specs,
    sweep_scheme,
    temporal_robustness,
    tradeoff_frontier,
)
from yumalab.synth import SynthConfig, generate

DEFAULT_CUTOFF_TEXT = "2025-02-13T00:00:00Z"

# The columns of each report table, in file order. Each names an attribute
# of the object a row or JSON object is read from.
CONCENTRATION_COLUMNS = (
    "netuid",
    "role_filter",
    "n_wallets",
    "gini_stake",
    "gini_reward",
    "hhi_stake",
    "hhi_reward",
    "top1_stake_share",
    "top1_reward_share",
)
CORRELATION_COLUMNS = ("netuid", "role", "n_wallets", "r_sr", "r_sp", "r_pr")
SWEEP_COLUMNS = ("scheme", "param", "netuid", "role", "r_sr", "r_pr", "d_r_sr", "d_r_pr")
SWEEP_AGGREGATE_COLUMNS = (
    "param",
    "role",
    "n_subnets",
    "excluded",
    "mean_d_r_sr",
    "median_d_r_sr",
    "mean_d_r_pr",
    "median_d_r_pr",
)
FRONTIER_COLUMNS = (
    "label",
    "kind",
    "param",
    "n_subnets",
    "median_coalition_fraction",
    "median_whale_penalty",
    "pareto",
)
WINDOW_COLUMNS = (
    "window_start",
    "n_subnets",
    "median",
    "p10",
    "p90",
    "baseline_median",
    "baseline_p10",
    "baseline_p90",
)
EMISSION_COLUMNS = (
    "block_emission",
    "owner_amount",
    "no_ranking_mass",
    "tempo_index",
    "miner_shares",
    "validator_shares",
    "miner_tao",
    "validator_tao",
    "delegator_rewards",
    "bonds",
)

_METRIC_FIELDS = ("gini", "hhi", "top1")
_RESOURCES = ("stake", "reward")


# ---------------------------------------------------------------------------
# Formatting and file helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """CSV cell: 9 significant digits for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _round9(value):
    """JSON payload value: floats reduced to 9 significant digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(format(value, ".9g"))
    if isinstance(value, dict):
        return {key: _round9(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(item) for item in value]
    return value


def _row(item, columns: Sequence[str]) -> tuple:
    """The `columns` attributes of `item`, with a role as its name, an
    instant in ISO-8601 UTC and an array as nested lists."""
    row = []
    for name in columns:
        value = getattr(item, name)
        if isinstance(value, Role):
            value = value.value
        elif isinstance(value, datetime):
            value = format_timestamp(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        row.append(value)
    return tuple(row)


def _object(item, columns: Sequence[str]) -> dict:
    return dict(zip(columns, _row(item, columns)))


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_table(path: str, columns: Sequence[str], items) -> None:
    """A CSV report with one row of `columns` per item."""
    _write_csv(path, columns, (_row(item, columns) for item in items))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_round9(payload), handle, indent=2)
        handle.write("\n")


def _out_dir(args: argparse.Namespace) -> str:
    """The output directory, created if missing; an empty --out means '.'."""
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ValidationError(f"output directory {out_dir!r} is not writable")
    return out_dir


def _parse_cutoff(text: str) -> Optional[datetime]:
    if text.strip().lower() in ("none", "off"):
        return None
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _load_dataset(args: argparse.Namespace) -> Dataset:
    cutoff = _parse_cutoff(args.cutoff)
    if not args.input:
        raise ValidationError("at least one --input file is required")
    parts = []
    for path in args.input:
        if not os.path.exists(path):
            raise ValidationError(f"input file not found: {path}")
        # Infer the input format from the extension; --format is the output
        # format and only disambiguates inputs with unrecognized suffixes.
        parts.append(load_events(path, format=_path_format(path) or args.format))
    dataset = Dataset.concat(parts, cutoff=cutoff)
    if not len(dataset):
        raise ValidationError("no events remain after parsing and cutoff")
    return dataset


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    out_format = args.format or "jsonl"
    events_path = os.path.join(out_dir, f"events.{out_format}")
    save_events(dataset, events_path, format=out_format)
    pairs = set(zip(dataset.wallet.tolist(), dataset.netuid.tolist()))
    summary = {
        "events": len(dataset),
        "wallets": len(pairs),
        "netuids": dataset.netuids(),
        "first_event": format_timestamp(from_epoch_us(dataset.timestamp[0])),
        "last_event": format_timestamp(from_epoch_us(dataset.timestamp[-1])),
        "cutoff": format_timestamp(dataset.cutoff) if dataset.cutoff else None,
        "events_file": os.path.basename(events_path),
    }
    _write_json(os.path.join(out_dir, "ingest_summary.json"), summary)
    return 0


def _metric_value(report, metric: str, resource: str) -> Optional[float]:
    suffix = "_share" if metric == "top1" else ""
    return getattr(report, f"{metric}_{resource}{suffix}")


def _summary_rows(variant: str, reports) -> list[tuple]:
    rows = []
    for role_filter in ROLE_FILTERS:
        for resource in _RESOURCES:
            for metric in _METRIC_FIELDS:
                values = [
                    value
                    for report in reports
                    if report.role_filter == role_filter
                    and (value := _metric_value(report, metric, resource)) is not None
                ]
                if values:
                    arr = np.asarray(values, dtype=np.float64)
                    stats = (
                        float(np.mean(arr)),
                        float(np.median(arr)),
                        float(np.min(arr)),
                        float(np.max(arr)),
                    )
                else:
                    stats = (None, None, None, None)
                rows.append((variant, role_filter, resource, metric) + stats)
    return rows


def _cmd_metrics(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    history = history_snapshots(dataset)

    history_reports = [
        concentration_report(snap, role_filter)
        for snap in history
        for role_filter in ROLE_FILTERS
    ]
    _write_table(os.path.join(out_dir, "concentration.csv"), CONCENTRATION_COLUMNS, history_reports)

    # Per-window reports averaged per (netuid, role_filter) at the chosen
    # frequency; windows where a metric is undefined are skipped.
    window_reports: dict[tuple[int, str], list] = {}
    for snap in resample(dataset, args.freq):
        for role_filter in ROLE_FILTERS:
            window_reports.setdefault((snap.netuid, role_filter), []).append(
                concentration_report(snap, role_filter)
            )
    metric_columns = CONCENTRATION_COLUMNS[3:]
    mean_rows = []
    for key in sorted(window_reports):
        group = window_reports[key]
        means = []
        for name in metric_columns:
            values = [value for report in group if (value := getattr(report, name)) is not None]
            means.append(float(np.mean(values)) if values else None)
        mean_rows.append((*key, len(group), *means))
    _write_csv(
        os.path.join(out_dir, "concentration_snapshot_mean.csv"),
        ("netuid", "role_filter", "n_windows") + metric_columns,
        mean_rows,
    )

    summary_rows = _summary_rows("history", history_reports)
    snapshot_reports = [report for group in window_reports.values() for report in group]
    summary_rows.extend(_summary_rows(f"snapshot_{args.freq}", snapshot_reports))
    _write_csv(
        os.path.join(out_dir, "concentration_summary.csv"),
        ("variant", "role_filter", "resource", "metric", "mean", "median", "min", "max"),
        summary_rows,
    )

    profiles = [
        correlation_profile(snap, role)
        for snap in history
        for role in (Role.MINER, Role.VALIDATOR)
        if snap.count(role) >= 2
    ]
    _write_table(os.path.join(out_dir, "correlations.csv"), CORRELATION_COLUMNS, profiles)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    rows = []
    for snap in history_snapshots(dataset):
        if float(np.sum(snap.stake)) <= 0.0:
            continue
        rows.append((snap.netuid, snap.count(), coalition_fraction(snap.stake, args.threshold)))
    _write_csv(os.path.join(out_dir, "coalition.csv"), ("netuid", "n_wallets", "coalition_fraction"), rows)
    return 0


def _json_int(name: str, value) -> int:
    """A JSON integer from an instance file; floats and booleans are refused."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _tempo_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"invalid UTF-8 in {path}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc.msg} (line {exc.lineno})") from None
    except RecursionError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    try:
        validators = tuple((str(v["id"]), float(v["stake"])) for v in payload["validators"])
        miners = tuple(str(m) for m in payload["miners"])
        weights = np.asarray(payload["weights"], dtype=np.float64)
        params_obj = payload.get("params", {})
        params = EmissionParams(
            alpha=float(params_obj.get("alpha", 0.1)),
            beta=float(params_obj.get("beta", 0.5)),
            kappa=float(params_obj.get("kappa", 0.5)),
            tempo_blocks=_json_int("tempo_blocks", params_obj.get("tempo_blocks", 360)),
        )
        block_emission = float(payload["block_emission"])
        delegations = tuple(
            Delegation(
                validator_id=str(d["validator_id"]),
                delegator_id=str(d["delegator_id"]),
                amount=float(d["amount"]),
                take=float(d["take"]),
            )
            for d in payload.get("delegations", ())
        )
        tempos = _json_int("tempos", payload.get("tempos", 1))
        if "bonds" in payload:
            bond_matrix = np.asarray(payload["bonds"], dtype=np.float64)
            tempo_index = _json_int("tempo_index", payload.get("tempo_index", 0))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed tempo instance {path}: {exc!r}") from None
    wm = WeightMatrix(validators=validators, miners=miners, weights=_freeze(weights))
    if "bonds" in payload:
        bonds = BondState(bonds=_freeze(bond_matrix), tempo_index=tempo_index)
    else:
        bonds = BondState.initial(wm.n_validators, wm.n_miners)
    if tempos < 1:
        raise ValidationError("tempos must be >= 1")
    return wm, bonds, params, block_emission, delegations, tempos


def _cmd_tempo(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    if len(args.input or ()) != 1:
        raise ValidationError("tempo expects exactly one --input instance file")
    wm, bonds, params, block_emission, delegations, tempos = _tempo_instance(args.input[0])
    chain = run_tempos(wm, bonds, params, block_emission, delegations)
    for _, outcome in zip(range(tempos), chain):
        pass  # only the last tempo's outcome is written
    _write_json(os.path.join(out_dir, "emission.json"), _object(outcome, EMISSION_COLUMNS))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    grid = None
    if args.grid:
        try:
            grid = tuple(float(part) for part in args.grid.split(","))
        except ValueError:
            raise ValidationError(f"invalid grid {args.grid!r}; expected comma-separated numbers") from None
    dataset = _load_dataset(args)
    result = sweep_scheme(history_snapshots(dataset), args.scheme, grid=grid)
    _write_table(os.path.join(out_dir, "sweep.csv"), SWEEP_COLUMNS, result.per_point)
    summary = {
        "scheme": result.scheme,
        "grid": list(result.grid),
        "aggregates": [_object(agg, SWEEP_AGGREGATE_COLUMNS) for agg in result.aggregates],
    }
    _write_json(os.path.join(out_dir, "sweep_summary.json"), summary)
    return 0


def _transform_from_args(args: argparse.Namespace) -> Optional[TransformSpec]:
    if args.transform == "cap":
        if args.param is None:
            raise ValidationError("--param (cap percentile) is required for the cap transform")
        return TransformSpec(kind="cap", cap_percentile=args.param)
    if args.transform == "power":
        if args.param is None:
            raise ValidationError("--param (exponent) is required for the power transform")
        return TransformSpec(kind="power", power_exponent=args.param)
    if args.transform == "log":
        return TransformSpec(kind="log")
    return None


def _cmd_frontier(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    chosen = _transform_from_args(args)
    if chosen is None:
        specs = default_frontier_specs()
    else:
        identity = TransformSpec(kind="cap", cap_percentile=100.0)
        specs = (identity, chosen) if chosen != identity else (identity,)
    points = tradeoff_frontier(history_snapshots(dataset), specs, threshold=args.threshold)
    _write_table(os.path.join(out_dir, "frontier.csv"), FRONTIER_COLUMNS, points)
    payload = {
        "threshold": args.threshold,
        "points": [_object(point, FRONTIER_COLUMNS) for point in points],
    }
    _write_json(os.path.join(out_dir, "frontier.json"), payload)
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    spec = _transform_from_args(args)
    freqs = (args.freq,) if args.freq else FREQUENCIES
    series = temporal_robustness(dataset, spec, freqs=freqs, threshold=args.threshold)
    _write_csv(
        os.path.join(out_dir, "robustness.csv"),
        ("freq",) + WINDOW_COLUMNS,
        ((entry.freq,) + _row(window, WINDOW_COLUMNS) for entry in series for window in entry.windows),
    )
    payload = {
        "transform": spec.label,
        "threshold": args.threshold,
        "series": [
            {"freq": entry.freq, "windows": [_object(window, WINDOW_COLUMNS) for window in entry.windows]}
            for entry in series
        ],
    }
    _write_json(os.path.join(out_dir, "robustness.json"), payload)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    cfg = SynthConfig(
        n_subnets=args.subnets,
        wallets_per_subnet=args.wallets,
        validator_fraction=args.validator_fraction,
        stake_law=args.stake_law,
        perf_law=args.perf_law,
        stake_perf_coupling=args.coupling,
        reward_rule=args.reward_rule,
        seed=args.seed,
        span_days=args.days,
        start=args.start,
    )
    dataset = generate(cfg)
    out_format = args.format or "jsonl"
    save_events(dataset, os.path.join(out_dir, f"synth.{out_format}"), format=out_format)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_io_flags(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument(
            "--input",
            action="extend",
            nargs="+",
            metavar="PATH",
            help="input event file(s); format inferred from the extension unless --format is given",
        )
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    parser.add_argument("--format", choices=("jsonl", "csv"), help="event file format")


def _add_cutoff_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cutoff",
        default=DEFAULT_CUTOFF_TEXT,
        metavar="ISO8601",
        help=f"exclude events at or after this instant (default {DEFAULT_CUTOFF_TEXT}; 'none' disables)",
    )


def _add_threshold_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.51,
        help="coalition control threshold (default 0.51)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yumalab",
        description="Pre-dTAO Bittensor emission simulation and decentralization analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate, and re-serialize event files")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("metrics", help="concentration and correlation reports")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    p.add_argument("--freq", choices=FREQUENCIES, default="daily", help="snapshot frequency for the per-window variant")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("attack", help="51%%-coalition fractions per subnet")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("tempo", help="run the emission pipeline on a JSON instance")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_tempo)

    p = sub.add_parser("sweep", help="reward-scheme correlation sweeps")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--grid", metavar="LIST", help="comma-separated parameter grid (must include the null value)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("frontier", help="security vs whale-penalty frontier")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.add_argument("--transform", choices=("cap", "power", "log"), help="score a single transform instead of the default ladder")
    p.add_argument("--param", type=float, help="transform parameter (cap percentile or power exponent)")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("robustness", help="coalition-fraction time series under a transform")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.add_argument("--transform", choices=("cap", "power", "log"), default="cap")
    p.add_argument("--param", type=float, default=88.0, help="transform parameter (default: 88th-percentile cap)")
    p.add_argument("--freq", choices=FREQUENCIES, help="restrict to one frequency (default: all three)")
    p.set_defaults(handler=_cmd_robustness)

    p = sub.add_parser("synth", help="generate a synthetic event dataset")
    _add_io_flags(p, with_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subnets", type=int, default=4)
    p.add_argument("--wallets", type=int, default=50)
    p.add_argument("--validator-fraction", type=float, default=0.2, dest="validator_fraction")
    p.add_argument("--stake-law", default="pareto:1.2", dest="stake_law")
    p.add_argument("--perf-law", default="beta:2,5", dest="perf_law")
    p.add_argument("--coupling", type=float, default=0.0, help="stake-perf rank coupling in [-1, 1]")
    p.add_argument("--reward-rule", choices=("stake_proportional", "yuma_replay"), default="stake_proportional", dest="reward_rule")
    p.add_argument("--days", type=int, default=90, help="span in days (daily events)")
    p.add_argument("--start", default="2024-01-01T00:00:00Z", help="first event timestamp")
    p.set_defaults(handler=_cmd_synth)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # A float that overflows, or a NaN that arithmetic makes, is an
        # error, not a number to write into a report.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.handler(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: floating-point {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
