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
import functools
import math
import os
import sys
from datetime import datetime
from typing import TYPE_CHECKING, Iterator, NoReturn, Optional, Sequence

from yumalab._util import (DEFAULT_THRESHOLD, DTAO_CUTOFF, EVENT_FORMATS, FREQUENCIES, REWARD_RULES, SCHEMES,
                           ValidationError, format_timestamp, from_epoch_us, integer, json_value, number,
                           parse_timestamp)

# Each handler imports the modules it runs, so a run loads only those:
# `tempo` loads consensus alone. Parsing the command line needs only this
# module and _util, so `--help` and usage errors load no NumPy; run()
# loads it once argparse has accepted the arguments.
if TYPE_CHECKING:
    from yumalab.ingest import Dataset

DEFAULT_CUTOFF_TEXT = format_timestamp(DTAO_CUTOFF)

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
    """The field names of the dataclass `result_type`, in order: the
    columns of a report on it, or the settings of a SynthConfig."""
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
    if text.strip().lower() == "none":
        return None
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _load_dataset(args: argparse.Namespace) -> Dataset:
    from yumalab.ingest import Dataset, load_events

    cutoff = _parse_cutoff(args.cutoff)
    if not args.input:
        raise ValidationError("at least one --input file is required")
    parts = []
    for path in args.input:
        if not os.path.exists(path):
            raise ValidationError(f"input file not found: {path}")
        try:
            parts.append(load_events(path))
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
    cutoff = _parse_cutoff(args.cutoff)
    events_path = _out_path(out_dir, f"events.{args.format}")
    save_events(dataset, events_path)
    pairs = set(zip(dataset.wallet.tolist(), dataset.netuid.tolist()))
    summary = {
        "events": len(dataset),
        "wallets": len(pairs),
        "netuids": dataset.netuids(),
        "first_event": format_timestamp(from_epoch_us(dataset.timestamp[0])),
        "last_event": format_timestamp(from_epoch_us(dataset.timestamp[-1])),
        "cutoff": None if cutoff is None else format_timestamp(cutoff),
        "events_file": os.path.basename(events_path),
    }
    _write_json(_out_path(out_dir, "ingest_summary.json"), summary)
    return 0


def _stats(values, *functions) -> tuple:
    """Each of `functions` of the values of a metric row that are not NaN,
    taken in row order; None for each when no value is."""
    import numpy as np

    values = values[~np.isnan(values)]
    return tuple(float(function(values)) if values.shape[0] else None for function in functions)


def _summary_rows(variant: str, tables: dict) -> Iterator[tuple]:
    """Per role filter, resource and metric, the mean, median, min and max
    of the defined values of the metric tables of `tables`, which maps each
    role filter to its metrics._concentration_table."""
    import numpy as np

    from yumalab.metrics import _median

    for role_filter, (_, table) in tables.items():
        # The table's rows interleave stake and reward for each metric.
        for resource, first in (("stake", 0), ("reward", 1)):
            for metric, values in zip(("gini", "hhi", "top1"), table[first::2]):
                yield (variant, role_filter, resource, metric, *_stats(values, np.mean, _median, np.min, np.max))


def _cmd_metrics(args: argparse.Namespace) -> int:
    import numpy as np

    from yumalab.ingest import _history_table, _window_table
    from yumalab.metrics import (
        ROLE_FILTERS,
        ConcentrationReport,
        CorrelationProfile,
        _concentration_rows,
        _concentration_table,
        _correlation_rows,
    )

    out_dir = _out_dir(args)
    dataset = _load_dataset(args)

    # The history metrics of each role filter as one batch over the history
    # table, one segment per netuid, written in (netuid, role_filter) order.
    netuids, _, offsets, _, miner, stake, reward, perf = _history_table(dataset)
    history = (netuids.tolist(), offsets, miner, stake, reward, perf)
    tables = {role_filter: _concentration_table(offsets, miner, stake, reward, role_filter)
              for role_filter in ROLE_FILTERS}
    columns = _columns(ConcentrationReport)
    _write_csv(_out_path(out_dir, "concentration.csv"), columns, _concentration_rows(history[0], tables))

    # Per-window metrics on the aggregation table at the chosen frequency,
    # averaged per (netuid, role_filter) over the windows that define them.
    # A netuid's windows are one run of segments.
    (netuids, _, offsets, _, miner, stake, reward, _), _ = _window_table(dataset, args.freq)
    window_tables = {role_filter: _concentration_table(offsets, miner, stake, reward, role_filter)
                     for role_filter in ROLE_FILTERS}
    starts = np.flatnonzero(np.concatenate(([True], netuids[1:] != netuids[:-1])))
    bounds = np.append(starts, len(netuids)).tolist()
    mean_rows = []
    for netuid, first, stop in zip(netuids[starts].tolist(), bounds[:-1], bounds[1:]):
        for role_filter, (_, table) in window_tables.items():
            means = (_stats(values, np.mean)[0] for values in table[:, first:stop])
            mean_rows.append((netuid, role_filter, stop - first, *means))
    _write_csv(
        _out_path(out_dir, "concentration_snapshot_mean.csv"),
        ("netuid", "role_filter", "n_windows") + columns[3:],
        mean_rows,
    )
    _write_csv(
        _out_path(out_dir, "concentration_summary.csv"),
        ("variant", "role_filter", "resource", "metric", "mean", "median", "min", "max"),
        (*_summary_rows("history", tables), *_summary_rows(f"snapshot_{args.freq}", window_tables)),
    )

    correlations = [(netuid, role.value, *values) for netuid, role, *values in _correlation_rows(*history)]
    _write_csv(_out_path(out_dir, "correlations.csv"), _columns(CorrelationProfile), correlations)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    import numpy as np

    from yumalab.ingest import _history_table
    from yumalab.metrics import _check_threshold, _coalition_column

    out_dir = _out_dir(args)
    threshold = _check_threshold(args.threshold)
    dataset = _load_dataset(args)
    # The coalition fraction of each subnet with stake mass, NaN for the others.
    netuid, _, offsets, _, _, stake, _, _ = _history_table(dataset)
    fractions = _coalition_column(stake, offsets, threshold)
    kept = ~np.isnan(fractions)
    rows = zip(netuid[kept].tolist(), np.diff(offsets)[kept].tolist(), fractions[kept].tolist())
    _write_csv(_out_path(out_dir, "coalition.csv"), ("netuid", "n_wallets", "coalition_fraction"), rows)
    return 0


def _tempo_instance(path: str):
    """The run_tempo arguments of a JSON instance file. The reader only
    picks each value out of the payload; the value types and run_tempo
    judge its kind and range."""
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
        params_obj = payload.get("params", {})
        # The instance format keeps tempo_blocks, which no computation reads.
        tempo_blocks = json_value("tempo_blocks", params_obj.get("tempo_blocks", 360), "integer")
        if tempo_blocks <= 0:
            raise ValidationError(f"tempo_blocks must be positive, got {tempo_blocks}")
        params = EmissionParams(params_obj.get("alpha", 0.1), params_obj.get("beta", 0.5), params_obj.get("kappa", 0.5))
        delegations = tuple(
            Delegation(d["validator_id"], d["delegator_id"], d["amount"], d["take"])
            for d in payload.get("delegations", ())
        )
        validators = tuple((v["id"], v["stake"]) for v in payload["validators"])
        wm = WeightMatrix(validators, payload["miners"], payload["weights"])
        if "bonds" in payload:
            bonds = BondState(bonds=payload["bonds"], tempo_index=payload.get("tempo_index", 0))
        else:
            bonds = BondState.initial(wm.n_validators, wm.n_miners)
        block_emission, tempos = payload["block_emission"], payload.get("tempos", 1)
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
    result = sweep_scheme(dataset, args.scheme, grid=grid)
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
    points = tradeoff_frontier(dataset, specs, threshold=args.threshold)
    columns = _columns(FrontierPoint)
    _write_table(_out_path(out_dir, "frontier.csv"), columns, points)
    payload = {
        "threshold": args.threshold,
        "points": [_object(point, columns) for point in points],
    }
    _write_json(_out_path(out_dir, "frontier.json"), payload)
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
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
    # The parser holds only the config flags that were given (see build_parser).
    fields = _columns(SynthConfig)
    dataset = generate(SynthConfig(**{name: value for name, value in vars(args).items() if name in fields}))
    save_events(dataset, _out_path(out_dir, f"synth.{args.format}"))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input",
        action="extend",
        nargs="+",
        metavar="PATH",
        help="input event file(s); format inferred from the suffix (.csv or .jsonl), else JSONL",
    )
    _add_out_flag(parser)


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=EVENT_FORMATS, default="jsonl",
                        help="format of the event file written (default jsonl)")


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
        default=DEFAULT_THRESHOLD,
        help=f"coalition control threshold (default {DEFAULT_THRESHOLD})",
    )


def _write_stderr(text: str) -> None:
    """Write `text` to stderr. A stderr that cannot be written loses the
    text, not the exit status that run() returns."""
    if sys.stderr is not None:  # None: a stream closed at start
        try:
            sys.stderr.write(text)
        except OSError:
            pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its sub-parsers, that lets an
    OSError from writing help through to run(); argparse drops it."""

    def _print_message(self, message: str, file=None) -> None:
        if file is None or file is sys.stderr:
            _write_stderr(message)
        elif message:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="yumalab",
        description="Pre-dTAO Bittensor emission simulation and decentralization analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate, and re-serialize event files")
    _add_io_flags(p)
    _add_format_flag(p)
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
    p.add_argument("--input", action="extend", nargs="+", metavar="PATH", help="JSON instance file")
    _add_out_flag(p)
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
    p.add_argument("--transform", metavar="KIND[:PARAM]", help="score one transform (cap:88, power:0.5 or log) instead of the default ladder")
    p.set_defaults(handler=_cmd_frontier)

    p = sub.add_parser("robustness", help="coalition-fraction time series under a transform")
    _add_io_flags(p)
    _add_cutoff_flag(p)
    _add_threshold_flag(p)
    p.add_argument("--transform", metavar="KIND[:PARAM]", default="cap:88", help="transform (default: cap:88, the 88th-percentile cap)")
    p.add_argument("--freq", choices=FREQUENCIES, help="restrict to one frequency (default: all three)")
    p.set_defaults(handler=_cmd_robustness)

    p = sub.add_parser("synth", help="generate a synthetic event dataset")
    _add_out_flag(p)
    _add_format_flag(p)
    # Each config flag's dest is the SynthConfig field it sets. It has no
    # default, so an absent flag leaves the field at the config's own.
    config_flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    config_flag("--seed", type=integer)
    config_flag("--subnets", type=integer, dest="n_subnets", metavar="SUBNETS")
    config_flag("--wallets", type=integer, dest="wallets_per_subnet", metavar="WALLETS")
    config_flag("--validator-fraction", type=number)
    config_flag("--stake-law")
    config_flag("--perf-law")
    config_flag("--coupling", type=number, dest="stake_perf_coupling", metavar="COUPLING",
                help="stake-perf rank coupling in [-1, 1]")
    config_flag("--reward-rule", choices=REWARD_RULES)
    config_flag("--days", type=integer, dest="span_days", metavar="DAYS", help="span in days (daily events)")
    config_flag("--start", help="first event timestamp")
    p.set_defaults(handler=_cmd_synth)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        import numpy as np

        # A float that overflows, or a NaN that arithmetic makes, is an
        # error, not a number to write into a report.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValidationError, OSError) as exc:
        _write_stderr(f"error: {exc}\n")
        return 1
    except FloatingPointError as exc:
        _write_stderr(f"error: floating-point {exc}\n")
        return 1


def main() -> NoReturn:
    """The process entry: run, flush stdout and end the process without the
    interpreter's teardown, which would only collect and free the objects
    of a finished run. Every report file is closed when run() returns, and
    stderr, line buffered, holds only whole lines. A stdout that fails to
    flush (a closed pipe) leaves the exit to the interpreter, which reports
    the failure and exits 120."""
    code = run()
    try:
        # sys.stdout is None when its file descriptor was closed at start.
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
