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
import errno
import math
import os
import sys
from datetime import datetime
from itertools import chain
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from yumalab._util import ValidationError, format_timestamp, from_epoch_us, integer, json_value, number, parse_timestamp

# Each handler imports the modules it runs, so a run loads only those:
# `tempo` loads consensus alone. Parsing the command line needs only this
# module and _util, so `--help` and usage errors load no NumPy; run()
# loads it once argparse has accepted the arguments.
if TYPE_CHECKING:
    from yumalab.ingest import Dataset

DEFAULT_CUTOFF_TEXT = "2025-02-13T00:00:00Z"

# The outcome mappings that emission.json holds, in file order. The other
# reports' columns are the fields of their result types (see _columns).
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


def _columns(result_type) -> tuple[str, ...]:
    """The columns of a report on `result_type`: its fields, in order."""
    import dataclasses

    return tuple(field.name for field in dataclasses.fields(result_type))


def _row(item, columns: Sequence[str]) -> tuple:
    """The `columns` attributes of `item`, with a role as its name, an
    instant in ISO-8601 UTC and an array as nested lists."""
    import numpy as np

    from yumalab.model import Role

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
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_table(path: str, columns: Sequence[str], items) -> None:
    """A CSV report with one row of `columns` per item."""
    _write_csv(path, columns, (_row(item, columns) for item in items))


def _float_text(value: float) -> str:
    """JSON float: the repr of its 9-significant-digit value, or NaN,
    Infinity or -Infinity as json writes them."""
    text = format(value, ".9g")
    if "." in text and "e" not in text:
        # At most 9 digits in [1e-4, 1e9): the repr of float(text).
        return text
    if math.isfinite(value):
        return repr(float(text))
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _json_text(value, indent: str = "\n") -> str:
    """`value` as json.dump(..., indent=2) writes it, floats as _float_text
    writes them; `indent` starts each of its lines. Dict keys must be str."""
    from json.encoder import encode_basestring_ascii as quote

    if isinstance(value, str):
        return quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", value
    elif isinstance(value, dict):
        brackets, items = "{}", value.values()
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    inner = indent + "  "
    if set(map(type, items)) == {float}:
        texts = map(_float_text, items)
    else:
        texts = [_json_text(item, inner) for item in items]
    if brackets == "{}":
        texts = map("{}: {}".format, map(quote, value), texts)
    return brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]


def _write_json(path: str, payload) -> None:
    text = _json_text(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _out_dir(args: argparse.Namespace) -> str:
    """The output directory, judged but not made: an empty --out means '.',
    and it or its nearest existing ancestor must be a writable directory.
    _out_path makes it before the first file is written, so a run that
    fails earlier leaves no directory behind."""
    out_dir = args.out or "."
    existing = out_dir
    while not os.path.lexists(existing) and existing != ".":
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), existing)
    if not os.access(existing, os.W_OK):
        raise ValidationError(f"output directory {out_dir!r} is not writable")
    return out_dir


def _out_path(out_dir: str, name: str) -> str:
    """The path of report `name` in `out_dir`, which is made if missing."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _parse_cutoff(text: str) -> Optional[datetime]:
    if text.strip().lower() in ("none", "off"):
        return None
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _load_dataset(args: argparse.Namespace) -> Dataset:
    from yumalab.ingest import Dataset, _path_format, load_events

    cutoff = _parse_cutoff(args.cutoff)
    if not args.input:
        raise ValidationError("at least one --input file is required")
    parts = []
    for path in args.input:
        if not os.path.exists(path):
            raise ValidationError(f"input file not found: {path}")
        # Infer the input format from the extension; --format is the output
        # format and only disambiguates inputs with unrecognized suffixes.
        try:
            parts.append(load_events(path, format=_path_format(path) or args.format))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    dataset = Dataset.concat(parts, cutoff=cutoff)
    if not len(dataset):
        raise ValidationError("no events remain after parsing and cutoff")
    return dataset


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    from yumalab.ingest import save_events

    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    out_format = args.format or "jsonl"
    events_path = _out_path(out_dir, f"events.{out_format}")
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
    _write_json(_out_path(out_dir, "ingest_summary.json"), summary)
    return 0


def _metric_value(report, metric: str, resource: str) -> Optional[float]:
    suffix = "_share" if metric == "top1" else ""
    return getattr(report, f"{metric}_{resource}{suffix}")


def _summary_rows(variant: str, reports) -> list[tuple]:
    import numpy as np

    from yumalab.metrics import ROLE_FILTERS

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
    import numpy as np

    from yumalab.ingest import history_snapshots, resample
    from yumalab.metrics import (
        ROLE_FILTERS,
        ConcentrationReport,
        CorrelationProfile,
        concentration_report,
        correlation_profile,
    )
    from yumalab.model import Role

    out_dir = _out_dir(args)
    dataset = _load_dataset(args)
    history = history_snapshots(dataset)

    history_reports = [
        concentration_report(snap, role_filter)
        for snap in history
        for role_filter in ROLE_FILTERS
    ]
    columns = _columns(ConcentrationReport)
    _write_table(_out_path(out_dir, "concentration.csv"), columns, history_reports)

    # Per-window reports averaged per (netuid, role_filter) at the chosen
    # frequency; windows where a metric is undefined are skipped.
    window_reports: dict[tuple[int, str], list] = {}
    for snap in resample(dataset, args.freq):
        for role_filter in ROLE_FILTERS:
            window_reports.setdefault((snap.netuid, role_filter), []).append(
                concentration_report(snap, role_filter)
            )
    metric_columns = columns[3:]
    mean_rows = []
    for key in sorted(window_reports):
        group = window_reports[key]
        means = []
        for name in metric_columns:
            values = [value for report in group if (value := getattr(report, name)) is not None]
            means.append(float(np.mean(values)) if values else None)
        mean_rows.append((*key, len(group), *means))
    _write_csv(
        _out_path(out_dir, "concentration_snapshot_mean.csv"),
        ("netuid", "role_filter", "n_windows") + metric_columns,
        mean_rows,
    )

    summary_rows = _summary_rows("history", history_reports)
    snapshot_reports = [report for group in window_reports.values() for report in group]
    summary_rows.extend(_summary_rows(f"snapshot_{args.freq}", snapshot_reports))
    _write_csv(
        _out_path(out_dir, "concentration_summary.csv"),
        ("variant", "role_filter", "resource", "metric", "mean", "median", "min", "max"),
        summary_rows,
    )

    profiles = [
        correlation_profile(snap, role)
        for snap in history
        for role in (Role.MINER, Role.VALIDATOR)
        if snap.count(role) >= 2
    ]
    _write_table(_out_path(out_dir, "correlations.csv"), _columns(CorrelationProfile), profiles)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    import numpy as np

    from yumalab.ingest import history_snapshots
    from yumalab.metrics import _check_threshold, _coalition_sorted

    out_dir = _out_dir(args)
    threshold = _check_threshold(args.threshold)
    dataset = _load_dataset(args)
    rows = []
    for snap in history_snapshots(dataset):
        if float(np.sum(snap.stake)) <= 0.0:
            continue
        rows.append((snap.netuid, snap.count(), _coalition_sorted(np.sort(snap.stake), threshold)))
    _write_csv(_out_path(out_dir, "coalition.csv"), ("netuid", "n_wallets", "coalition_fraction"), rows)
    return 0


def _json_numbers(name: str, rows):
    """`rows` if it is a JSON array of arrays of numbers; TypeError naming the first value that is not."""
    json_value(name, rows, "array")
    if not (set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        for row in rows:
            for cell in json_value(f"{name} row", row, "array"):
                json_value(name, cell, "number")
    return rows


def _tempo_instance(path: str):
    """The run_tempo arguments of a JSON instance file. Each value must be
    of its field's JSON kind, and its value type (float() for block_emission) converts it."""
    import json

    from yumalab.consensus import Delegation
    from yumalab.model import BondState, EmissionParams, WeightMatrix

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
        validators = tuple((json_value("id", v["id"], "string"), json_value("stake", v["stake"], "number"))
                           for v in payload["validators"])
        miners = tuple(json_value("miner", m, "string") for m in payload["miners"])
        weights = _json_numbers("weights", payload["weights"])
        params_obj = payload.get("params", {})
        # The instance format keeps tempo_blocks, which no computation reads.
        tempo_blocks = json_value("tempo_blocks", params_obj.get("tempo_blocks", 360), "integer")
        params = EmissionParams(
            alpha=json_value("alpha", params_obj.get("alpha", 0.1), "number"),
            beta=json_value("beta", params_obj.get("beta", 0.5), "number"),
            kappa=json_value("kappa", params_obj.get("kappa", 0.5), "number"),
        )
        if tempo_blocks <= 0:
            raise ValidationError(f"tempo_blocks must be positive, got {tempo_blocks}")
        block_emission = float(json_value("block_emission", payload["block_emission"], "number"))
        delegations = tuple(
            Delegation(
                validator_id=json_value("validator_id", d["validator_id"], "string"),
                delegator_id=json_value("delegator_id", d["delegator_id"], "string"),
                amount=json_value("amount", d["amount"], "number"),
                take=json_value("take", d["take"], "number"),
            )
            for d in payload.get("delegations", ())
        )
        tempos = json_value("tempos", payload.get("tempos", 1), "integer")
        wm = WeightMatrix(validators=validators, miners=miners, weights=weights)
        if "bonds" in payload:
            bonds = BondState(
                bonds=_json_numbers("bonds", payload["bonds"]),
                tempo_index=json_value("tempo_index", payload.get("tempo_index", 0), "integer"),
            )
        else:
            bonds = BondState.initial(wm.n_validators, wm.n_miners)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed tempo instance {path}: {exc!r}") from None
    return wm, bonds, params, block_emission, delegations, tempos


def _cmd_tempo(args: argparse.Namespace) -> int:
    from yumalab.consensus import run_tempo

    out_dir = _out_dir(args)
    if len(args.input or ()) != 1:
        raise ValidationError("tempo expects exactly one --input instance file")
    wm, bonds, params, block_emission, delegations, tempos = _tempo_instance(args.input[0])
    outcome = run_tempo(wm, bonds, params, block_emission, delegations, tempos=tempos)
    _write_json(_out_path(out_dir, "emission.json"), _object(outcome, EMISSION_COLUMNS))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from yumalab.ingest import history_snapshots
    from yumalab.sweep import SweepAggregate, SweepPoint, _check_grid, sweep_scheme

    out_dir = _out_dir(args)
    grid = None
    if args.grid:
        try:
            grid = tuple(map(number, args.grid.split(",")))
        except ValueError:
            raise ValidationError(f"invalid grid {args.grid!r}; expected comma-separated numbers") from None
    grid = _check_grid(args.scheme, grid)
    dataset = _load_dataset(args)
    result = sweep_scheme(history_snapshots(dataset), args.scheme, grid=grid)
    _write_table(_out_path(out_dir, "sweep.csv"), _columns(SweepPoint), result.per_point)
    aggregate_columns = _columns(SweepAggregate)
    summary = {
        "scheme": result.scheme,
        "grid": list(result.grid),
        "aggregates": [_object(agg, aggregate_columns) for agg in result.aggregates],
    }
    _write_json(_out_path(out_dir, "sweep_summary.json"), summary)
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from yumalab.ingest import history_snapshots
    from yumalab.interventions import TransformSpec
    from yumalab.metrics import _check_threshold
    from yumalab.sweep import FrontierPoint, default_frontier_specs, tradeoff_frontier

    out_dir = _out_dir(args)
    if args.transform is None:
        specs = default_frontier_specs()
    else:
        chosen = TransformSpec.parse(args.transform)
        identity = TransformSpec("cap", 100.0)
        specs = (identity, chosen) if chosen != identity else (identity,)
    _check_threshold(args.threshold)
    dataset = _load_dataset(args)
    points = tradeoff_frontier(history_snapshots(dataset), specs, threshold=args.threshold)
    columns = _columns(FrontierPoint)
    _write_table(_out_path(out_dir, "frontier.csv"), columns, points)
    payload = {
        "threshold": args.threshold,
        "points": [_object(point, columns) for point in points],
    }
    _write_json(_out_path(out_dir, "frontier.json"), payload)
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from yumalab.ingest import FREQUENCIES
    from yumalab.interventions import TransformSpec
    from yumalab.metrics import _check_threshold
    from yumalab.sweep import RobustnessWindow, temporal_robustness

    out_dir = _out_dir(args)
    spec = TransformSpec.parse(args.transform)
    _check_threshold(args.threshold)
    dataset = _load_dataset(args)
    freqs = (args.freq,) if args.freq else FREQUENCIES
    series = temporal_robustness(dataset, spec, freqs=freqs, threshold=args.threshold)
    columns = _columns(RobustnessWindow)
    _write_csv(
        _out_path(out_dir, "robustness.csv"),
        ("freq",) + columns,
        ((entry.freq,) + _row(window, columns) for entry in series for window in entry.windows),
    )
    payload = {
        "transform": spec.label,
        "threshold": args.threshold,
        "series": [
            {"freq": entry.freq, "windows": [_object(window, columns) for window in entry.windows]}
            for entry in series
        ],
    }
    _write_json(_out_path(out_dir, "robustness.json"), payload)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from yumalab.ingest import save_events
    from yumalab.synth import SynthConfig, generate

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
    save_events(dataset, _out_path(out_dir, f"synth.{out_format}"), format=out_format)
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
    _add_out_flag(parser)
    parser.add_argument("--format", choices=("jsonl", "csv"), help="event file format")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")


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
        type=number,
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
    p.add_argument("--freq", choices=("daily", "weekly", "monthly"), default="daily", help="snapshot frequency for the per-window variant")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("attack", help="51%%-coalition fractions per subnet")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("tempo", help="run the emission pipeline on a JSON instance")
    p.add_argument("--input", action="extend", nargs="+", metavar="PATH", help="JSON instance file")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_tempo)

    p = sub.add_parser("sweep", help="reward-scheme correlation sweeps")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    p.add_argument("--scheme", choices=("split", "composite", "bonus"), required=True)
    p.add_argument("--grid", metavar="LIST", help="comma-separated parameter grid (must include the null value)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("frontier", help="security vs whale-penalty frontier")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.add_argument("--transform", metavar="KIND[:PARAM]", help="score one transform (cap:88, power:0.5 or log) instead of the default ladder")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("robustness", help="coalition-fraction time series under a transform")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.add_argument("--transform", metavar="KIND[:PARAM]", default="cap:88", help="transform (default: cap:88, the 88th-percentile cap)")
    p.add_argument("--freq", choices=("daily", "weekly", "monthly"), help="restrict to one frequency (default: all three)")
    p.set_defaults(handler=_cmd_robustness)

    p = sub.add_parser("synth", help="generate a synthetic event dataset")
    _add_io_flags(p, with_input=False)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--subnets", type=integer, default=4)
    p.add_argument("--wallets", type=integer, default=50)
    p.add_argument("--validator-fraction", type=number, default=0.2, dest="validator_fraction")
    p.add_argument("--stake-law", default="pareto:1.2", dest="stake_law")
    p.add_argument("--perf-law", default="beta:2,5", dest="perf_law")
    p.add_argument("--coupling", type=number, default=0.0, help="stake-perf rank coupling in [-1, 1]")
    p.add_argument("--reward-rule", choices=("stake_proportional", "yuma_replay"), default="stake_proportional", dest="reward_rule")
    p.add_argument("--days", type=integer, default=90, help="span in days (daily events)")
    p.add_argument("--start", default="2024-01-01T00:00:00Z", help="first event timestamp")
    p.set_defaults(handler=_cmd_synth)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    import numpy as np

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


def main() -> NoReturn:
    """The process entry: run, flush the standard streams and end the
    process without the interpreter's teardown, which would only collect
    and free the objects of a finished run. Every report file is closed
    when run() returns. A stream that fails to flush (a closed pipe) leaves
    the exit to the interpreter, which reports the failure and exits 120."""
    code = run()
    try:
        for stream in (sys.stdout, sys.stderr):
            # A stream is None when its file descriptor was closed at start.
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
