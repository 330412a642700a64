"""CLI contract: exit codes, file schemas, formatting, determinism."""

import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import re
import shlex
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yumalab import cli, ingest, model, sweep, synth
from yumalab._util import parse_timestamp
from yumalab.cli import DEFAULT_CUTOFF_TEXT, build_parser, run
from yumalab.ingest import history_snapshots, load_events, resample, save_events
from yumalab.metrics import ROLE_FILTERS, ConcentrationReport, coalition_fraction, concentration_report
from yumalab.consensus import BondState, run_tempo
from yumalab.model import (
    EmissionParams,
    SnapshotEntry,
    SnapshotEvent,
    SubnetSnapshot,
    WeightMatrix,
    _MappingView,
)
from test_ingest import event_file, event_records
from test_sweep import THRESHOLD, drawn_datasets

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
TEMPO_CHAIN_INSTANCE = os.path.join(DATA_DIR, "tempo_chain_instance.json")
OUTCOME_VIEWS = ("miner_shares", "validator_shares", "miner_tao", "validator_tao", "delegator_rewards")


def run_cli(*args) -> int:
    return run(list(args))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("explode") == 2

    def test_missing_required_flag_is_usage_error(self, tmp_path, fixture_path):
        assert run_cli("sweep", "--input", fixture_path, "--out", str(tmp_path)) == 2

    def test_missing_input_file_is_validation_error(self, tmp_path, capsys):
        code = run_cli("metrics", "--input", "/no/such/file.jsonl", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_cutoff_is_validation_error(self, tmp_path, fixture_path):
        code = run_cli("metrics", "--input", fixture_path, "--out", str(tmp_path),
                       "--cutoff", "yesterday")
        assert code == 1

    def test_success_is_zero(self, tmp_path, fixture_path):
        assert run_cli("attack", "--input", fixture_path, "--out", str(tmp_path)) == 0

    # The output directory, --grid, --cutoff, the threshold, the transform
    # and every number flag are checked before any input file is read:
    # argparse's flags with exit 2, the others with exit 1.
    @pytest.mark.parametrize("args, code, message", [
        (("sweep", "--scheme", "bonus", "--grid", "abc"), 1,
         "invalid grid 'abc'; expected comma-separated numbers"),
        (("sweep", "--scheme", "split", "--grid", "0,0.5,0"), 1,
         "grid values must be distinct; 0.0 appears more than once"),
        (("sweep", "--scheme", "split", "--grid", "0,nan"), 1, "grid values must be finite, got nan"),
        (("sweep", "--scheme", "split", "--grid", "0,nan,nan"), 1, "grid values must be finite, got nan"),
        (("sweep", "--scheme", "bonus", "--grid", "0,inf"), 1, "grid values must be finite, got inf"),
        (("attack", "--cutoff", "garbage"), 1, "invalid timestamp 'garbage'"),
        # `none` is the one spelling that turns the cutoff off.
        (("attack", "--cutoff", "off"), 1, "invalid timestamp 'off'"),
        (("attack", "--threshold", "1.5"), 1, "threshold must lie in (0, 1], got 1.5"),
        (("frontier", "--transform", "cap"), 1, "cap transform requires a param"),
        (("frontier", "--transform", "foo"), 1, "unknown transform kind 'foo'"),
        (("frontier", "--threshold", "0"), 1, "threshold must lie in (0, 1], got 0.0"),
        (("robustness", "--threshold", "1.5"), 1, "threshold must lie in (0, 1], got 1.5"),
        (("robustness", "--transform", "cap:101"), 1, "cap param must lie in (0, 100], got 101.0"),
        (("robustness", "--transform", "log:5"), 1, "log transform takes no param, got 5.0"),
        # Numbers are ASCII decimal, as in a CSV cell: int() and float()
        # alone read 8_8 as 88 and \u0663 as 3.
        (("frontier", "--transform", "cap:8_8"), 1, "invalid transform parameters in 'cap:8_8'"),
        (("robustness", "--transform", "cap:\u0668\u0668"), 1,
         "invalid transform parameters in 'cap:\u0668\u0668'"),
        (("sweep", "--scheme", "bonus", "--grid", "0,1_0"), 1,
         "invalid grid '0,1_0'; expected comma-separated numbers"),
        (("synth", "--stake-law", "pareto:1_2"), 1, "invalid stake law parameters in 'pareto:1_2'"),
        (("attack", "--threshold", "0.5_1"), 2, "argument --threshold: invalid number value: '0.5_1'"),
        (("frontier", "--threshold", "\uff10.5"), 2,
         "argument --threshold: invalid number value: '\uff10.5'"),
        (("synth", "--days", "1_0"), 2, "argument --days: invalid integer value: '1_0'"),
        (("synth", "--seed", "\u0663"), 2, "argument --seed: invalid integer value: '\u0663'"),
        (("synth", "--subnets", "\u0662"), 2, "argument --subnets: invalid integer value: '\u0662'"),
        (("synth", "--wallets", "2_0"), 2, "argument --wallets: invalid integer value: '2_0'"),
        (("synth", "--validator-fraction", "0.2_5"), 2,
         "argument --validator-fraction: invalid number value: '0.2_5'"),
        (("synth", "--coupling", "0_0.5"), 2, "argument --coupling: invalid number value: '0_0.5'"),
    ], ids=["grid", "grid-repeat", "grid-nan", "grid-nan-repeat", "grid-inf", "cutoff", "cutoff-off",
            "threshold", "frontier-transform", "frontier-kind", "frontier-threshold",
            "robustness-threshold", "robustness-param", "robustness-log-param",
            "transform-underscore", "transform-arabic-indic", "grid-underscore", "law-underscore",
            "threshold-underscore", "threshold-fullwidth", "days", "seed", "subnets", "wallets",
            "validator-fraction", "coupling"])
    def test_bad_flag_is_named_before_inputs(self, tmp_path, capsys, args, code, message):
        # synth reads no input; its --input is a usage error that argparse
        # reports only after a bad number flag.
        inputs = () if args[0] == "synth" and code == 1 else ("--input", "/no/such.jsonl")
        assert run_cli(*args, *inputs, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err == f"error: {message}\n"
        else:
            assert err.endswith(f": error: {message}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["frontier", "robustness"])
    def test_param_flag_is_gone(self, tmp_path, capsys, command):
        assert run_cli(command, "--param", "50", "--input", "/no/such.jsonl", "--out", str(tmp_path)) == 2
        assert "unrecognized arguments: --param 50" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_output_directory_is_checked_before_the_grid(self, tmp_path, capsys):
        taken = tmp_path / "file"
        taken.write_text("")
        code = run_cli("sweep", "--scheme", "bonus", "--grid", "abc", "--input", "/no/such.jsonl",
                       "--out", str(taken))
        assert code == 1
        assert "File exists" in capsys.readouterr().err

    def test_output_directory_under_a_file_is_refused_before_inputs(self, tmp_path, capsys):
        taken = tmp_path / "file"
        taken.write_text("")
        code = run_cli("attack", "--input", "/no/such.jsonl", "--out", str(taken / "sub"))
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(taken)!r}\n"

    # Each run fails after --out is judged, with a new --out: none of them
    # may leave the directory behind.
    @pytest.mark.parametrize("args", [
        ("attack", "--threshold", "2"),
        ("robustness", "--transform", "bogus"),
        ("metrics", "--cutoff", "garbage"),
        ("sweep", "--scheme", "split", "--grid", "0,0.5,0"),
        ("synth", "--stake-law", "bogus"),
        ("tempo", "--input", "/missing.json"),
    ], ids=lambda args: args[0])
    def test_failing_run_makes_no_output_directory(self, tmp_path, capsys, fixture_path, args):
        inputs = () if args[0] in ("synth", "tempo") else ("--input", fixture_path)
        out = tmp_path / "new" / "out"
        assert run_cli(*args, *inputs, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()

    def test_output_directory_is_made_with_its_parents(self, tmp_path, fixture_path):
        out = tmp_path / "a" / "b"
        assert run_cli("attack", "--input", fixture_path, "--out", str(out)) == 0
        assert os.listdir(out) == ["coalition.csv"]

    def test_empty_out_is_the_working_directory(self, tmp_path, monkeypatch, fixture_path):
        monkeypatch.chdir(tmp_path)
        assert run_cli("attack", "--input", fixture_path, "--out", "") == 0
        assert os.listdir(tmp_path) == ["coalition.csv"]

    def test_tempo_without_input(self, tmp_path, capsys):
        assert run_cli("tempo", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: tempo expects exactly one --input instance file\n"

    # Only ingest and synth write an event file, so only they take --format.
    @pytest.mark.parametrize("args", [
        ["tempo", "--input", TEMPO_CHAIN_INSTANCE],
        ["metrics"], ["attack"], ["sweep", "--scheme", "split"], ["frontier"], ["robustness"],
    ], ids=lambda args: args[0])
    def test_tempo_has_no_format_flag(self, tmp_path, capsys, fixture_path, args):
        inputs = () if args[0] == "tempo" else ("--input", fixture_path)
        out = tmp_path / "out"
        assert run_cli(*args, *inputs, "--out", str(out), "--format", "csv") == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_summary_and_events(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--out", str(tmp_path)) == 0
        with open(tmp_path / "ingest_summary.json") as handle:
            summary = json.load(handle)
        assert summary["events"] == 4200
        assert summary["netuids"] == [0, 1, 2]
        assert summary["first_event"] == "2024-01-01T00:00:00Z"
        assert (tmp_path / "events.jsonl").exists()

    # An offset names the same instant, which the summary writes in UTC.
    @pytest.mark.parametrize("cutoff", ["2024-01-03T00:00:00Z", "2024-01-03T02:00:00+02:00"])
    def test_cutoff_filters_events(self, tmp_path, fixture_path, cutoff):
        assert run_cli("ingest", "--input", fixture_path, "--out", str(tmp_path), "--cutoff", cutoff) == 0
        with open(tmp_path / "ingest_summary.json") as handle:
            summary = json.load(handle)
        assert summary["events"] == 2 * 3 * 40  # two days survive
        assert summary["cutoff"] == "2024-01-03T00:00:00Z"

    @pytest.mark.parametrize("text", ["none", "NONE", " None "])
    def test_none_turns_the_cutoff_off(self, tmp_path, text):
        # One event on the day before the dTAO instant and one at it.
        path = tmp_path / "events.csv"
        path.write_text(",".join(ingest.EVENT_COLUMNS) + "\n"
                        + "2025-02-12T00:00:00Z,1,1,w,miner,1.0,1.0,,\n"
                        + f"{DEFAULT_CUTOFF_TEXT},2,1,w,miner,1.0,1.0,,\n")
        counts = []
        for name, flags in (("all", ("--cutoff", text)), ("before", ())):
            assert run_cli("ingest", "--input", str(path), "--out", str(tmp_path / name), *flags) == 0
            with open(tmp_path / name / "ingest_summary.json") as handle:
                counts.append(json.load(handle)["events"])
        assert counts == [2, 1]

    def test_csv_output_reparses(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--out", str(tmp_path),
                       "--format", "csv") == 0
        out = tmp_path / "events.csv"
        reparsed = load_events(out)
        original = load_events(fixture_path)
        assert reparsed.events == original.events


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, fixture_path):
    out = tmp_path_factory.mktemp("metrics")
    assert run_cli("metrics", "--input", fixture_path, "--out", str(out)) == 0
    return out


class TestMetrics:
    def test_concentration_rows(self, outputs, fixture_path):
        rows = read_csv(outputs / "concentration.csv")
        assert rows[0] == ["netuid", "role_filter", "n_wallets", "gini_stake",
                           "gini_reward", "hhi_stake", "hhi_reward",
                           "top1_stake_share", "top1_reward_share"]
        assert len(rows) - 1 == 3 * len(ROLE_FILTERS)

    def test_concentration_matches_library(self, outputs, fixture_path):
        snaps = {s.netuid: s for s in history_snapshots(load_events(fixture_path))}
        for row in read_csv(outputs / "concentration.csv")[1:]:
            report = concentration_report(snaps[int(row[0])], row[1])
            assert int(row[2]) == report.n_wallets
            assert float(row[3]) == pytest.approx(report.gini_stake, rel=1e-8)
            assert float(row[8]) == pytest.approx(report.top1_reward_share, rel=1e-8)

    def test_summary_schema(self, outputs):
        rows = read_csv(outputs / "concentration_summary.csv")
        assert rows[0] == ["variant", "role_filter", "resource", "metric",
                           "mean", "median", "min", "max"]
        variants = {row[0] for row in rows[1:]}
        assert variants == {"history", "snapshot_daily"}

    def test_correlations_schema(self, outputs):
        rows = read_csv(outputs / "correlations.csv")
        assert rows[0] == ["netuid", "role", "n_wallets", "r_sr", "r_sp", "r_pr"]
        assert len(rows) - 1 == 6  # 3 subnets x 2 roles, all populous enough

    def test_nine_significant_digits(self, outputs):
        for row in read_csv(outputs / "concentration.csv")[1:]:
            for cell in row[3:]:
                if cell:
                    mantissa = cell.lstrip("-0.").replace(".", "").lstrip("0")
                    assert len(mantissa) <= 9


def metrics_oracle(ds, freq) -> dict[str, list[list[str]]]:
    """The rows, header first, of the concentration reports of `metrics
    --freq freq` on `ds`, from the public concentration_report of each
    history and resample snapshot. A mean, median, min or max is taken of
    the defined values, in snapshot order."""
    columns = cli._columns(ConcentrationReport)
    history = [concentration_report(snap, role_filter)
               for snap in history_snapshots(ds) for role_filter in ROLE_FILTERS]
    windows = resample(ds, freq)
    window_reports = [concentration_report(snap, role_filter)
                      for snap in windows for role_filter in ROLE_FILTERS]

    def defined(reports, role_filter, name):
        return [value for report in reports
                if report.role_filter == role_filter and (value := getattr(report, name)) is not None]

    means = []
    for netuid in sorted({snap.netuid for snap in windows}):
        group = [report for report in window_reports if report.netuid == netuid]
        n_windows = sum(snap.netuid == netuid for snap in windows)
        for role_filter in ROLE_FILTERS:
            means.append([str(netuid), role_filter, str(n_windows)] + [
                cli._fmt(float(np.mean(values))) if (values := defined(group, role_filter, name)) else ""
                for name in columns[3:]
            ])
    summary = []
    for variant, reports in (("history", history), (f"snapshot_{freq}", window_reports)):
        for role_filter in ROLE_FILTERS:
            for resource in ("stake", "reward"):
                for metric in ("gini", "hhi", "top1"):
                    name = f"{metric}_{resource}" + ("_share" if metric == "top1" else "")
                    values = defined(reports, role_filter, name)
                    stats = ((float(np.mean(values)), float(np.median(values)), min(values), max(values))
                             if values else (None,) * 4)
                    summary.append([variant, role_filter, resource, metric, *map(cli._fmt, stats)])
    return {
        "concentration.csv": [list(columns)] + [[cli._fmt(getattr(report, name)) for name in columns]
                                                for report in history],
        "concentration_snapshot_mean.csv": [["netuid", "role_filter", "n_windows", *columns[3:]]] + means,
        "concentration_summary.csv": [["variant", "role_filter", "resource", "metric",
                                       "mean", "median", "min", "max"]] + summary,
    }


def event(day, netuid, wallet, role, stake, reward):
    """One event record at 00:00 UTC of 2024-01-`day`, as event_records draws them."""
    return {"timestamp": f"2024-01-{day:02d}T00:00:00Z", "block_number": day, "netuid": netuid,
            "wallet": wallet, "role": role, "stake": stake, "reward": reward,
            "trust": 0.5 if role == "miner" else None, "validator_trust": None if role == "miner" else 0.5}


class TestMetricsOracle:
    """The per-window means and the summary of `metrics` are the statistics
    of the public concentration_report of each snapshot."""

    @settings(max_examples=60, deadline=None)
    @given(records=event_records(max_size=40), freq=st.sampled_from(ingest.FREQUENCIES))
    # Day 1 of netuid 0 holds no validator, and netuid 1 none at all.
    @example(records=[event(1, 0, "a", "miner", 1.0, 1.0), event(1, 0, "b", "miner", 3.0, 0.0),
                      event(2, 0, "a", "miner", 2.0, 0.5), event(2, 0, "c", "validator", 2.0, 1.0),
                      event(1, 1, "a", "miner", 5.0, 2.0), event(9, 1, "d", "miner", 1.0, 1.0)],
             freq="daily").via("a role filter without a wallet")
    # Netuid 2 holds no stake, and netuid 3 no reward on day 1.
    @example(records=[event(1, 2, "a", "miner", 0.0, 2.0), event(1, 2, "b", "validator", -0.0, 1.0),
                      event(2, 2, "a", "miner", 0.0, 0.0), event(1, 3, "a", "miner", 4.0, 0.0),
                      event(2, 3, "a", "miner", 4.0, 3.0), event(2, 3, "c", "validator", 1.0, 1.0)],
             freq="weekly").via("a zero-stake subnet")
    def test_reports_match_the_library(self, records, freq):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "events.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(event_file(records, "jsonl"))
            out = os.path.join(root, "out")
            assert run_cli("metrics", "--input", path, "--freq", freq, "--cutoff", "none", "--out", out) == 0
            expected = metrics_oracle(load_events(path), freq)
            assert {name: read_csv(os.path.join(out, name)) for name in expected} == expected


class TestAttack:
    def test_schema(self, tmp_path, fixture_path):
        assert run_cli("attack", "--input", fixture_path, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "coalition.csv")
        assert rows[0] == ["netuid", "n_wallets", "coalition_fraction"]
        assert len(rows) - 1 == 3
        for row in rows[1:]:
            assert 0.0 < float(row[2]) <= 1.0

    def test_threshold_flag(self, tmp_path, fixture_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("attack", "--input", fixture_path, "--out", str(out_a)) == 0
        assert run_cli("attack", "--input", fixture_path, "--out", str(out_b),
                       "--threshold", "0.9") == 0
        low = [float(r[2]) for r in read_csv(out_a / "coalition.csv")[1:]]
        high = [float(r[2]) for r in read_csv(out_b / "coalition.csv")[1:]]
        assert all(h >= l for l, h in zip(low, high))

    # Subnets of equal and unequal sizes share or split the table's blocks;
    # a subnet without stake mass has no row.
    @settings(max_examples=60, deadline=None)
    @given(dataset=drawn_datasets(max_subnets=4, max_wallets=40), threshold=THRESHOLD)
    def test_rows_match_coalition_fraction(self, dataset, threshold):
        expected = [[str(snap.netuid), str(len(snap.wallet)), format(coalition_fraction(snap.stake, threshold), ".9g")]
                    for snap in history_snapshots(dataset) if float(np.sum(snap.stake)) > 0.0]
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "events.jsonl")
            save_events(dataset, path)
            assert run_cli("attack", "--input", path, "--threshold", repr(threshold), "--out", root) == 0
            assert read_csv(os.path.join(root, "coalition.csv")) == [
                ["netuid", "n_wallets", "coalition_fraction"], *expected]

    @pytest.mark.parametrize("command", ["attack", "frontier", "robustness"])
    def test_threshold_out_of_range_without_stake(self, tmp_path, capsys, command):
        # No subnet holds stake, so no coalition is ever sized; the
        # threshold is still refused.
        path = tmp_path / "zero.jsonl"
        path.write_text("".join(
            json.dumps({"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1,
                        "wallet": wallet, "role": "miner", "stake": 0.0, "reward": 1.0}) + "\n"
            for wallet in ("w1", "w2")
        ))
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(path), "--threshold", "1.5", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: threshold must lie in (0, 1], got 1.5\n"
        assert not out.exists()


    @pytest.mark.parametrize("first", ["a", "b"])
    def test_duplicate_row_across_inputs_fails_in_either_order(self, tmp_path, capsys, first):
        rows = [
            ("2024-01-01T00:00:00Z", "w1", 10.0),
            ("2024-01-01T00:00:00Z", "w2", 20.0),
            ("2024-01-01T00:00:00Z", "w3", 30.0),
        ]
        paths = {}
        for name, chosen in (("a", rows), ("b", rows[:1])):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(
                json.dumps({"timestamp": stamp, "block_number": 1, "netuid": 1, "wallet": wallet,
                            "role": "validator", "stake": stake, "reward": 1.0}) + "\n"
                for stamp, wallet, stake in chosen
            ))
        order = [str(paths[first]), str(paths["b" if first == "a" else "a"])]
        assert run_cli("attack", "--input", *order, "--out", str(tmp_path / "out")) == 1
        assert "duplicate events for (timestamp, netuid, wallet) ('2024-01-01T00:00:00Z', 1, 'w1')" \
            in capsys.readouterr().err


class TestTempo:
    def test_emission_output(self, tmp_path, tempo_instance_path):
        assert run_cli("tempo", "--input", tempo_instance_path, "--out", str(tmp_path)) == 0
        with open(tmp_path / "emission.json") as handle:
            out = json.load(handle)
        assert out["owner_amount"] == 18.0
        assert out["tempo_index"] == 2
        assert out["miner_shares"]["m1"] == pytest.approx(5.0 / 9.0, rel=1e-8)
        assert not out["no_ranking_mass"]
        total = out["owner_amount"] + sum(out["miner_tao"].values()) + sum(
            out["validator_tao"].values())
        assert total == pytest.approx(100.0, rel=1e-7)
        assert np.asarray(out["bonds"]).shape == (2, 2)

    def test_malformed_instance_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"validators\": []")
        assert run_cli("tempo", "--input", str(bad), "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("fields, raw, message", [
        ({"bonds": [[0.0, 0.0], [0.0]]}, None, "error: malformed tempo instance"),
        ({"bonds": [[0.0, 0.0], [0.0, 0.0]], "tempo_index": "x"}, None,
         "error: tempo_index must be an int, got 'x'\n"),
        ({"params": [0.1]}, None, "error: malformed tempo instance"),
        ({"tempos": float("inf")}, None, "error: tempos must be an int, got inf\n"),
        ({}, b'{"miners": ["m\xff"]}', "error: invalid UTF-8 in"),
        ({"tempos": 2.7}, None, "error: tempos must be an int, got 2.7\n"),
        ({"tempos": True}, None, "error: tempos must be an int, got True\n"),
        ({"bonds": [[0.0, 0.0], [0.0, 0.0]], "tempo_index": 3.9}, None,
         "error: tempo_index must be an int, got 3.9\n"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 0.5, "tempo_blocks": 360.9}}, None,
         "error: malformed tempo instance"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 0.5, "tempo_blocks": 0}}, None,
         "error: tempo_blocks must be positive, got 0\n"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 0.5, "tempo_blocks": -5}}, None,
         "error: tempo_blocks must be positive, got -5\n"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 2.0}}, None,
         "error: kappa must lie in (0, 1], got 2.0\n"),
        ({"delegations": [{"validator_id": "v1", "delegator_id": "d1", "amount": -1.0,
                           "take": 0.18}]}, None, "error: amount must be >= 0, got -1.0\n"),
        ({}, b"[" * 100_000 + b"]" * 100_000, "error: invalid JSON in"),
        ({"block_emission": 10**400}, None,
         f"error: block emission must be within float64 range, got {10**400}\n"),
        ({"validators": [{"id": "v1", "stake": 10**400}, {"id": "v2", "stake": 1.0}]}, None,
         f"error: stake of 'v1' must be within float64 range, got {10**400}\n"),
        ({"weights": [[0.5, 0.5], [10**400, 0.1]]}, None,
         f"error: weights must be within float64 range, got {10**400}\n"),
        ({"bonds": [[0.0, 0.0], [0.0, 10**400]]}, None,
         f"error: bonds must be within float64 range, got {10**400}\n"),
    ], ids=["ragged-bonds", "tempo-index", "params-not-object", "infinite-tempos", "non-utf8",
            "float-tempos", "bool-tempos", "float-tempo-index", "float-tempo-blocks",
            "zero-tempo-blocks", "negative-tempo-blocks",
            "params-invalid", "delegation-invalid", "deep-nesting", "huge-block-emission", "huge-stake",
            "huge-weight", "huge-bond"])
    def test_bad_instance_is_an_error_line(self, tmp_path, capsys, tempo_instance_path,
                                          fields, raw, message):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = {**json.load(handle), **fields}
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw if raw is not None else json.dumps(instance).encode())
        assert run_cli("tempo", "--input", str(bad), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @staticmethod
    def _assert_refused(tmp_path, capsys, instance, where, key, value, error):
        """Set `key` under the `where` path of `instance` to `value`: tempo
        must refuse the file with one error line and write nothing. A kind
        fault (`error` a str) is the value type's own line; a shape fault
        (`error` an exception) is wrapped as a malformed instance."""
        fields = instance
        for step in where:
            fields = fields[step]
        fields[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(instance))
        out = tmp_path / "out"
        assert run_cli("tempo", "--input", str(bad), "--out", str(out)) == 1
        if isinstance(error, Exception):
            error = f"malformed tempo instance {bad}: {error!r}"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1_0", "٥", True], ids=["underscore", "arabic-indic", "true"])
    @pytest.mark.parametrize("where, key, name", [
        ((), "block_emission", "block emission"),
        (("validators", 1), "stake", "stake of 'v2'"),
        (("params",), "alpha", "alpha"),
        (("params",), "beta", "beta"),
        (("params",), "kappa", "kappa"),
        (("delegations", 0), "amount", "amount"),
        (("delegations", 0), "take", "take"),
    ], ids=["block_emission", "stake", "alpha", "beta", "kappa", "amount", "take"])
    def test_number_fields_need_a_json_number(self, tmp_path, capsys, tempo_instance_path, where, key, name, value):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = json.load(handle)
        self._assert_refused(tmp_path, capsys, instance, where, key, value,
                             f"{name} must be a real number, got {value!r}")

    @pytest.mark.parametrize("value", [7, True, None], ids=["int", "true", "null"])
    @pytest.mark.parametrize("where, key, name", [
        (("validators", 0), "id", "validator id"),
        (("miners",), 1, "miner id"),
        (("delegations", 0), "validator_id", "validator_id"),
        (("delegations", 0), "delegator_id", "delegator_id"),
    ], ids=["id", "miner", "validator_id", "delegator_id"])
    def test_id_fields_need_a_json_string(self, tmp_path, capsys, tempo_instance_path, where, key, name, value):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = json.load(handle)
        self._assert_refused(tmp_path, capsys, instance, where, key, value,
                             f"{name} must be a non-empty string, got {value!r}")

    @pytest.mark.parametrize("value", ["0.5", "0_1", True, None], ids=["string", "underscore", "true", "null"])
    @pytest.mark.parametrize("matrix", ["weights", "bonds"])
    def test_matrix_cells_need_a_json_number(self, tmp_path, capsys, tempo_instance_path, matrix, value):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = {**json.load(handle), "bonds": [[0.0, 0.0], [0.0, 0.0]]}
        self._assert_refused(tmp_path, capsys, instance, (matrix, 1), 0, value,
                             f"{matrix} must be a real number, got {value!r}")

    @pytest.mark.parametrize("row, value", [
        (False, "ab"), (False, {"v1": [0.5, 0.5]}), (False, 0.5),
        (True, "0.5"), (True, {"m1": 0.5}), (True, 0.5),
    ], ids=["string", "object", "number", "string-row", "object-row", "number-row"])
    @pytest.mark.parametrize("matrix", ["weights", "bonds"])
    def test_matrices_need_json_arrays(self, tmp_path, capsys, tempo_instance_path, matrix, row, value):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = {**json.load(handle), "bonds": [[0.0, 0.0], [0.0, 0.0]]}
        name, where, key = (f"{matrix} row", (matrix,), 1) if row else (matrix, (), matrix)
        error = TypeError(f"{name} must be a list, a tuple or an array, got {value!r}")
        self._assert_refused(tmp_path, capsys, instance, where, key, value, error)

    def test_integers_read_as_floats(self, tmp_path):
        # Every number is whole, so each can be written as a JSON integer
        # too; the report must not tell the two apart.
        floats = {
            "validators": [{"id": "v1", "stake": 3.0}, {"id": "v2", "stake": 1.0}],
            "miners": ["m1", "m2"],
            "weights": [[1.0, 1.0], [1.0, 0.0]],
            "params": {"alpha": 0.0, "beta": 1.0, "kappa": 1.0},
            "block_emission": 100.0,
            "delegations": [{"validator_id": "v1", "delegator_id": "d1", "amount": 2.0, "take": 0.0}],
            "bonds": [[1.0, 0.0], [0.0, 1.0]],
        }
        ints = json.loads(json.dumps(floats), parse_float=lambda text: int(float(text)))
        assert ints["block_emission"] == 100 and type(ints["bonds"][0][0]) is int
        reports = []
        for name, instance in (("floats", floats), ("ints", ints)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(instance))
            assert run_cli("tempo", "--input", str(path), "--out", str(tmp_path / name)) == 0
            reports.append((tmp_path / name / "emission.json").read_bytes())
        assert b'"block_emission": 100.0,' in reports[0]
        assert reports[1] == reports[0]


class TestSweep:
    def test_composite_default_grid_rows(self, tmp_path, fixture_path):
        assert run_cli("sweep", "--input", fixture_path, "--out", str(tmp_path),
                       "--scheme", "composite") == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["scheme", "param", "netuid", "role",
                           "r_sr", "r_pr", "d_r_sr", "d_r_pr"]
        for netuid in ("0", "1", "2"):
            for role in ("miner", "validator"):
                count = sum(1 for r in rows[1:] if r[2] == netuid and r[3] == role)
                assert count == 11

    def test_null_rows_have_zero_deltas(self, tmp_path, fixture_path):
        assert run_cli("sweep", "--input", fixture_path, "--out", str(tmp_path),
                       "--scheme", "bonus", "--grid", "0,0.1,0.2") == 0
        for row in read_csv(tmp_path / "sweep.csv")[1:]:
            if row[1] == "0":
                assert row[6] == "0" and row[7] == "0"
        with open(tmp_path / "sweep_summary.json") as handle:
            summary = json.load(handle)
        assert summary["grid"] == [0.0, 0.1, 0.2]

    def test_grid_without_null_fails(self, tmp_path, fixture_path):
        assert run_cli("sweep", "--input", fixture_path, "--out", str(tmp_path),
                       "--scheme", "bonus", "--grid", "0.1,0.2") == 1

    @pytest.mark.parametrize("grid, value", [("0,0.5,0", "0.0"), ("0,0.5,-0", "-0.0")])
    def test_repeated_grid_value_fails(self, tmp_path, capsys, fixture_path, grid, value):
        assert run_cli("sweep", "--input", fixture_path, "--out", str(tmp_path),
                       "--scheme", "split", "--grid", grid) == 1
        assert capsys.readouterr().err == f"error: grid values must be distinct; {value} appears more than once\n"
        assert os.listdir(tmp_path) == []


class TestFrontier:
    def test_default_ladder(self, tmp_path, fixture_path):
        assert run_cli("frontier", "--input", fixture_path, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "frontier.csv")
        assert rows[0] == ["label", "kind", "param", "n_subnets",
                           "median_coalition_fraction", "median_whale_penalty", "pareto"]
        labels = [r[0] for r in rows[1:]]
        assert "cap:100" in labels and "log" in labels
        with open(tmp_path / "frontier.json") as handle:
            summary = json.load(handle)
        assert len(summary["points"]) == len(labels)

    def test_single_transform(self, tmp_path, fixture_path):
        assert run_cli("frontier", "--input", fixture_path, "--out", str(tmp_path),
                       "--transform", "power:0.5") == 0
        labels = [r[0] for r in read_csv(tmp_path / "frontier.csv")[1:]]
        assert labels in (["cap:100", "power:0.5"], ["power:0.5", "cap:100"])

    def test_cap_requires_param(self, tmp_path, fixture_path):
        assert run_cli("frontier", "--input", fixture_path, "--out", str(tmp_path),
                       "--transform", "cap") == 1

    def test_negative_penalty_for_stakes_below_one(self, tmp_path):
        # A power below 1 raises the top wallet's stake of 0.5 to 0.5 ** 0.9.
        path = tmp_path / "small.jsonl"
        path.write_text("".join(
            json.dumps({"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1,
                        "wallet": wallet, "role": "miner", "stake": stake, "reward": 1.0}) + "\n"
            for wallet, stake in (("w1", 0.5), ("w2", 0.25), ("w3", 0.125))
        ))
        assert run_cli("frontier", "--input", str(path), "--out", str(tmp_path),
                       "--transform", "power:0.9") == 0
        penalties = {r[0]: r[5] for r in read_csv(tmp_path / "frontier.csv")[1:]}
        assert penalties["power:0.9"] == "-0.0717734625"


class TestRobustness:
    def test_all_frequencies(self, tmp_path, fixture_path):
        assert run_cli("robustness", "--input", fixture_path, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "robustness.csv")
        assert rows[0][:3] == ["freq", "window_start", "n_subnets"]
        freqs = {r[0] for r in rows[1:]}
        assert freqs == {"daily", "weekly", "monthly"}
        daily = [r for r in rows[1:] if r[0] == "daily"]
        assert len(daily) == 35

    def test_single_frequency_flag(self, tmp_path, fixture_path):
        assert run_cli("robustness", "--input", fixture_path, "--out", str(tmp_path),
                       "--freq", "weekly") == 0
        freqs = {r[0] for r in read_csv(tmp_path / "robustness.csv")[1:]}
        assert freqs == {"weekly"}

    def test_log_transform(self, tmp_path, fixture_path):
        assert run_cli("robustness", "--input", fixture_path, "--out", str(tmp_path),
                       "--transform", "log", "--freq", "monthly") == 0
        with open(tmp_path / "robustness.json") as handle:
            payload = json.load(handle)
        assert payload["transform"] == "log"
        assert [entry["freq"] for entry in payload["series"]] == ["monthly"]
        assert len(read_csv(tmp_path / "robustness.csv")) == 1 + len(payload["series"][0]["windows"])


class TestSynth:
    def test_seed_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("synth", "--out", str(out), "--seed", "9",
                           "--subnets", "2", "--wallets", "20", "--days", "3") == 0
        assert (out_a / "synth.jsonl").read_bytes() == (out_b / "synth.jsonl").read_bytes()

    def test_csv_format(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--format", "csv",
                       "--subnets", "1", "--wallets", "10", "--days", "2") == 0
        rows = read_csv(tmp_path / "synth.csv")
        assert rows[0][0] == "timestamp"
        assert len(rows) - 1 == 20

    def test_output_feeds_metrics(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--seed", "3",
                       "--subnets", "2", "--wallets", "15", "--days", "4") == 0
        assert run_cli("metrics", "--input", str(tmp_path / "synth.jsonl"),
                       "--out", str(tmp_path / "m"), "--cutoff", "none") == 0

    def test_config_flags_are_the_config_fields(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = [a for a in subparsers.choices["synth"]._actions if a.dest not in ("help", "out", "format")]
        assert sorted(a.dest for a in flags) == sorted(field.name for field in dataclasses.fields(synth.SynthConfig))
        assert {a.default for a in flags} == {argparse.SUPPRESS}

    @pytest.mark.parametrize("flag, text, field, value", [
        ("--seed", "7", "seed", 7),
        ("--subnets", "2", "n_subnets", 2),
        ("--wallets", "9", "wallets_per_subnet", 9),
        ("--validator-fraction", "0.5", "validator_fraction", 0.5),
        ("--stake-law", "lognormal:0,1", "stake_law", "lognormal:0,1"),
        ("--perf-law", "uniform", "perf_law", "uniform"),
        ("--coupling", "-0.5", "stake_perf_coupling", -0.5),
        ("--reward-rule", "yuma_replay", "reward_rule", "yuma_replay"),
        ("--days", "3", "span_days", 3),
        ("--start", "2024-03-31T00:00:00Z", "start", "2024-03-31T00:00:00Z"),
    ])
    def test_each_flag_sets_its_field_alone(self, tmp_path, monkeypatch, flag, text, field, value):
        configs, generate = [], synth.generate
        small = {"n_subnets": 1, "wallets_per_subnet": 3, "span_days": 1}
        monkeypatch.setattr(synth, "generate", lambda cfg: configs.append(cfg) or generate(dataclasses.replace(cfg, **small)))
        assert run_cli("synth", flag, text, "--out", str(tmp_path)) == 0
        assert configs == [synth.SynthConfig(**{field: value})]

    def test_absent_flag_keeps_the_config_default(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class ShortConfig(synth.SynthConfig):
            span_days: int = 2

        monkeypatch.setattr(synth, "SynthConfig", ShortConfig)
        assert run_cli("synth", "--subnets", "1", "--wallets", "3", "--out", str(tmp_path)) == 0
        assert len(set(load_events(tmp_path / "synth.jsonl").timestamp.tolist())) == 2


class TestEventEncoding:
    LINE = ('{{"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1, '
            '"wallet": "{}", "role": "miner", "stake": 1.0, "reward": 1.0}}')
    CSV_ROW = "2024-01-01T00:00:00Z,1,1,{},miner,1.0,1.0,,"

    @pytest.mark.parametrize("suffix, body, line", [
        (".jsonl", LINE.format("a") + "\r\n" + LINE.format("b\udcff") + "\n", 2),
        (".jsonl", LINE.format("a") + "\r" + LINE.format("b") + "\n" + LINE.format("c\udcfe"), 3),
        (".csv", ",".join(("timestamp", "block_number", "netuid", "wallet", "role", "stake",
                            "reward", "trust", "validator_trust"))
         + "\n" + CSV_ROW.format("a") + "\r\n" + CSV_ROW.format("b\udcff") + "\n", 3),
    ], ids=["jsonl-crlf", "jsonl-cr", "csv"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys, suffix, body, line):
        path = tmp_path / f"events{suffix}"
        path.write_bytes(body.encode("utf-8", "surrogateescape"))
        assert run_cli("attack", "--input", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {line}: invalid UTF-8 byte 0x")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["attack", "ingest"])
    @pytest.mark.parametrize("old, new, message", [
        ('"stake": 1.0', '"stake": 1' + "0" * 400, "invalid stake: 1000"),
        ('"reward": 1.0', '"reward": 1.0, "trust": 1' + "0" * 400, "invalid trust: 1000"),
        ('"stake": 1.0', '"stake": ' + "1" * 5001, "invalid JSON: "),
        ('"wallet": "b"', '"wallet": "b\\ud800"', "wallet must be valid Unicode text, got 'b\\ud800'"),
        ('"stake": 1.0', '"stake": ' + "[" * 100_000 + "]" * 100_000,
         "invalid JSON: maximum recursion depth exceeded"),
    ], ids=["stake-401-digits", "trust-401-digits", "stake-5001-digits", "lone-surrogate",
            "stake-deep-nesting"])
    def test_malformed_jsonl_value_names_its_line(self, tmp_path, capsys, command, old, new, message):
        path = tmp_path / "events.jsonl"
        path.write_text(self.LINE.format("a") + "\n" + self.LINE.format("b").replace(old, new) + "\n")
        out = tmp_path / "out"
        written = ("--format", "csv") if command == "ingest" else ()
        assert run_cli(command, "--input", str(path), "--out", str(out), *written) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: {message}")
        assert "Traceback" not in err
        assert not out.exists()


    def test_load_error_names_its_file(self, tmp_path, capsys):
        first = tmp_path / "b.csv"
        first.write_text(",".join(ingest.EVENT_COLUMNS) + "\n" + self.CSV_ROW.format("a") + "\n")
        second = tmp_path / "a.jsonl"
        second.write_text("".join(self.LINE.format(wallet) + "\n" for wallet in "bcd") + "{not json}\n")
        out = tmp_path / "out"
        assert run_cli("attack", "--input", str(first), str(second), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {second}: line 4: invalid JSON: Expecting property name enclosed in double quotes\n"
        assert not out.exists()
        # A key in both files is found by the merge, which names no file.
        second.write_text(self.LINE.format("a") + "\n")
        assert run_cli("attack", "--input", str(first), str(second), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate events for (timestamp, netuid, wallet) ('2024-01-01T00:00:00Z', 1, 'a')\n"

    def test_oversized_csv_field_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(",".join(ingest.EVENT_COLUMNS) + "\n" + self.CSV_ROW.format("a") + "\n"
                        + self.CSV_ROW.format("b" * 200_000) + "\n")
        assert run_cli("attack", "--input", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 3: invalid CSV: field larger than field limit (131072)\n"


class TestNumericOverflow:
    """A sum beyond the float64 range is an `error:` line and exit 1, not a
    traceback, a RuntimeWarning or a nan in a report."""

    LINE = ('{{"timestamp": "2024-01-0{day}T{hour}:00:00Z", "block_number": 1, "netuid": 3, '
            '"wallet": "{wallet}", "role": "miner", "stake": {stake}, "reward": {reward}}}')

    def run(self, tmp_path, command, rows):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(self.LINE.format(**row) + "\n" for row in rows))
        out = tmp_path / "out"
        extra = {"sweep": ["--scheme", "split"], "robustness": ["--freq", "daily"]}.get(command, [])
        code = run_cli(command, "--input", str(path), *extra, "--out", str(out))
        return code, out.exists()

    @pytest.mark.parametrize("command", ["attack", "metrics", "frontier", "robustness", "sweep"])
    def test_reward_sum_names_wallet_and_netuid(self, tmp_path, capsys, command):
        rows = [dict(day=day, hour=hour, wallet=wallet, stake=1.0, reward=reward)
                for day in (1, 2)
                for wallet, hour, reward in (("w1", "00", 1e308), ("w1", "12", 1e308), ("w2", "00", 1.0))]
        assert self.run(tmp_path, command, rows) == (1, False)
        err = capsys.readouterr().err
        assert err == "error: rewards of wallet 'w1' in netuid 3 sum beyond the float64 range\n"

    @pytest.mark.parametrize("command, operation", [
        ("attack", "accumulate"),
        ("metrics", "reduce"),
        ("frontier", "accumulate"),
        ("robustness", "accumulate"),
        ("sweep", "reduce"),
    ])
    def test_stake_sum_is_an_error_line(self, tmp_path, capsys, command, operation):
        rows = [dict(day=day, hour="00", wallet=wallet, stake=1e308, reward=1.0)
                for day in (1, 2) for wallet in ("w1", "w2")]
        assert self.run(tmp_path, command, rows) == (1, False)
        err = capsys.readouterr().err
        assert err == f"error: floating-point overflow encountered in {operation}\n"


class TestNoPerEntryObjects:
    """Every analysis subcommand computes from the aggregation table's
    columns; none of them builds a SnapshotEntry or a SubnetSnapshot."""

    INVOCATIONS = pytest.mark.parametrize("args", [
        ["attack"], ["metrics"], ["metrics", "--freq", "weekly"], ["robustness"], ["frontier"],
        ["sweep", "--scheme", "split"], ["sweep", "--scheme", "bonus"],
        ["sweep", "--scheme", "composite"],
    ], ids=" ".join)

    def run_forbidding(self, tmp_path, fixture_path, monkeypatch, args, row_type):
        def forbidden(self):
            raise AssertionError(f"a {row_type.__name__} was built")

        monkeypatch.setattr(row_type, "__post_init__", forbidden)
        assert run_cli(*args, "--input", fixture_path, "--out", str(tmp_path)) == 0

    @INVOCATIONS
    def test_runs_with_entries_forbidden(self, tmp_path, fixture_path, monkeypatch, args):
        self.run_forbidding(tmp_path, fixture_path, monkeypatch, args, SnapshotEntry)

    @INVOCATIONS
    def test_runs_with_snapshots_forbidden(self, tmp_path, fixture_path, monkeypatch, args):
        self.run_forbidding(tmp_path, fixture_path, monkeypatch, args, SubnetSnapshot)


class TestNoConcentrationReports:
    """metrics writes its concentration reports from the metric arrays; it
    builds no ConcentrationReport."""

    @pytest.mark.parametrize("freq", ["daily", "weekly"])
    def test_metrics_builds_none(self, tmp_path, fixture_path, monkeypatch, freq):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("a ConcentrationReport was built")

        monkeypatch.setattr(ConcentrationReport, "__init__", forbidden)
        assert run_cli("metrics", "--freq", freq, "--input", fixture_path, "--out", str(tmp_path)) == 0


class TestNoPerEventObjects:
    """synth, ingest and the analysis subcommands read and write columns;
    none of them builds a SnapshotEvent."""

    @pytest.fixture(autouse=True)
    def forbid_events(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("a SnapshotEvent was built")

        monkeypatch.setattr(SnapshotEvent, "__post_init__", forbidden)

    @pytest.mark.parametrize("rule", ["stake_proportional", "yuma_replay"])
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_synth(self, tmp_path, rule, format):
        assert run_cli("synth", "--reward-rule", rule, "--format", format, "--subnets", "2",
                       "--wallets", "12", "--days", "3", "--out", str(tmp_path)) == 0

    def test_ingest_both_ways(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--format", "csv", "--out", str(tmp_path / "a")) == 0
        assert run_cli("ingest", "--input", str(tmp_path / "a" / "events.csv"),
                       "--out", str(tmp_path / "b")) == 0

    @pytest.mark.parametrize("args", [
        ["attack"], ["metrics"], ["robustness"], ["frontier"], ["sweep", "--scheme", "split"],
    ], ids=" ".join)
    def test_analysis(self, tmp_path, fixture_path, args):
        assert run_cli(*args, "--input", fixture_path, "--out", str(tmp_path)) == 0


class TestOutcomeViewsBuiltOnRead:
    """An outcome's mapping views are built only when read: the replay in
    synth reads arrays, and tempo builds the views of the one outcome it
    writes."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = _MappingView.__get__

        def counting(view, outcome, owner=None):
            if outcome is not None:
                built.append((view.name, outcome))
            return build(view, outcome, owner)

        # A cached view sits in the outcome's __dict__, which shadows the
        # descriptor, so only builds reach __get__.
        monkeypatch.setattr(_MappingView, "__get__", counting)
        return built

    def test_synth_replay_builds_none(self, tmp_path, builds):
        assert run_cli("synth", "--reward-rule", "yuma_replay", "--subnets", "2",
                       "--wallets", "12", "--days", "5", "--out", str(tmp_path)) == 0
        assert builds == []

    def test_tempo_builds_only_the_written_outcome(self, tmp_path, builds):
        assert run_cli("tempo", "--input", TEMPO_CHAIN_INSTANCE, "--out", str(tmp_path)) == 0
        assert sorted(name for name, _ in builds) == sorted(OUTCOME_VIEWS)
        assert len({id(outcome) for _, outcome in builds}) == 1
        assert builds[0][1].tempo_index == 7 + 25

    def test_a_view_read_twice_is_built_once(self, builds):
        wm = WeightMatrix(validators=(("v1", 1.0),), miners=("m1", "m2"),
                          weights=np.array([[0.5, 0.25]]))
        outcome = run_tempo(wm, BondState.initial(1, 2), EmissionParams(alpha=0.1, beta=0.5), 10.0)
        assert outcome.miner_tao is outcome.miner_tao
        assert builds == [("miner_tao", outcome)]


class TestNoColumnCopies:
    """The CLI's own arrays reach the value objects read-only, so building
    them copies no column; a copy is kept for arrays a caller still holds."""

    @pytest.mark.parametrize("args", [
        ["metrics", "--input", os.path.join(DATA_DIR, "wide.jsonl")],
        ["robustness", "--input", os.path.join(DATA_DIR, "fixture.jsonl")],
        ["sweep", "--input", os.path.join(DATA_DIR, "wide.jsonl"), "--scheme", "composite"],
        ["tempo", "--input", TEMPO_CHAIN_INSTANCE],
        ["synth", "--reward-rule", "yuma_replay", "--seed", "5", "--subnets", "2",
         "--wallets", "24", "--days", "3"],
        ["ingest", "--input", os.path.join(DATA_DIR, "fixture.jsonl"), "--format", "csv"],
    ], ids=["metrics", "robustness", "sweep", "tempo", "synth-replay", "ingest"])
    def test_no_column_is_copied(self, tmp_path, monkeypatch, args):
        frozen = model._frozen
        copied = []

        def counting(array, source):
            out = frozen(array, source)
            if out is not array:
                copied.append(array.shape)
            return out

        monkeypatch.setattr(model, "_frozen", counting)
        assert run_cli(*args, "--out", str(tmp_path)) == 0
        assert copied == []


class TestInputSuffix:
    def test_upper_case_csv_suffix_is_csv(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--format", "csv", "--out", str(tmp_path)) == 0
        upper = tmp_path / "E.CSV"
        (tmp_path / "events.csv").rename(upper)
        outputs = []
        for source in (upper, fixture_path):
            out = tmp_path / f"attack-{os.path.basename(source)}"
            assert run_cli("attack", "--input", str(source), "--out", str(out)) == 0
            outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
        assert outputs[0] == outputs[1]


class TestFileHygiene:
    def test_outputs_end_with_newline(self, tmp_path, fixture_path):
        assert run_cli("metrics", "--input", fixture_path, "--out", str(tmp_path)) == 0
        assert run_cli("attack", "--input", fixture_path, "--out", str(tmp_path)) == 0
        for name in os.listdir(tmp_path):
            data = (tmp_path / name).read_bytes()
            assert data.endswith(b"\n"), name

    def test_rerun_is_byte_identical(self, tmp_path, fixture_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("metrics", "--input", fixture_path, "--out", str(out)) == 0
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def miner_rows(stakes, rewards, trusts):
    """JSONL text: the given miners of netuid 3 on two days."""
    return "".join(
        json.dumps({"timestamp": f"2024-01-0{day}T00:00:00Z", "block_number": day, "netuid": 3,
                    "wallet": f"m{i}", "role": "miner", "stake": stake, "reward": reward,
                    "trust": trust}) + "\n"
        for day in (1, 2)
        for i, (stake, reward, trust) in enumerate(zip(stakes, rewards, trusts))
    )


def output_files(out) -> dict:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestPearsonRange:
    """A correlation whose two sums of squares multiply beyond the float64
    range is still written: not a ZeroDivisionError below the range, and
    not a silent 0 above it."""

    REPORTS = [["metrics"], ["sweep", "--scheme", "split"], ["sweep", "--scheme", "composite"],
               ["sweep", "--scheme", "bonus"]]
    IDS = ["metrics", "split", "composite", "bonus"]

    @pytest.mark.parametrize("args", REPORTS, ids=IDS)
    def test_product_below_the_range(self, tmp_path, args):
        # Reward and perf sums of squares are ~1e-200 and ~1e-240.
        path = tmp_path / "tiny.jsonl"
        path.write_text(miner_rows((1.0, 2.0, 3.0), (1e-100, 2e-100, 3.5e-100), (1e-120, 2e-120, 3e-120)))
        assert run_cli(*args, "--input", str(path), "--out", str(tmp_path / "out")) == 0
        if args[0] == "metrics":
            rows = read_csv(tmp_path / "out" / "correlations.csv")
            assert rows[1] == ["3", "miner", "3", "0.993399268", "1", "0.993399268"]
        else:
            null = {"split": "0", "composite": "1", "bonus": "0"}[args[2]]
            rows = [row for row in read_csv(tmp_path / "out" / "sweep.csv")[1:] if row[1] == null]
            assert [row[4:6] for row in rows] == [["0.993399268", "0.993399268"]]

    @pytest.mark.parametrize("args", REPORTS, ids=IDS)
    def test_product_above_the_range(self, tmp_path, args):
        # Scaling stake and reward by 2**500 (about 3.3e150) scales every
        # deviation exactly, so each report holds the unit-scale bytes.
        stakes, rewards, trusts = (1.0, 2.0, 3.0, 5.0), (1.5, 1.75, 3.25, 4.5), (0.25, 0.5, 0.75, 0.5)
        scale = 2.0 ** 500
        outputs = []
        for name, factor in (("unit", 1.0), ("large", scale)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(miner_rows([x * factor for x in stakes], [x * factor for x in rewards], trusts))
            assert run_cli(*args, "--input", str(path), "--out", str(tmp_path / name)) == 0
            outputs.append(output_files(tmp_path / name))
        assert outputs[0] == outputs[1]
        if args[0] == "metrics":
            assert read_csv(tmp_path / "large" / "correlations.csv")[1][3] == "0.976315261"


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WIDE = os.path.join(DATA_DIR, "wide.jsonl")
LOADED_BY_PARSER = {"yumalab", "yumalab._util", "yumalab.cli"}
LOADED_BY_CLI = LOADED_BY_PARSER | {"yumalab.model"}
REPORT_MODULES = {"yumalab.ingest", "yumalab.interventions", "yumalab.metrics", "yumalab.sweep"}


class TestModulesLoaded:
    """Each subcommand imports only the modules it runs, and none of them
    loads numpy.ma; parsing the command line alone (`--help`, a usage
    error) loads neither yumalab.model nor NumPy."""

    SCRIPT = ("import json, sys\n"
              "from yumalab.cli import run\n"
              "code = run(sys.argv[1:])\n"
              "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'yumalab')\n"
              "print(json.dumps([code, loaded, 'numpy' in sys.modules, 'numpy.ma' in sys.modules]))\n")

    @pytest.mark.parametrize("args, code, extra", [
        (["ingest", "--input", WIDE], 0, {"yumalab.ingest"}),
        (["metrics", "--input", WIDE], 0, {"yumalab.ingest", "yumalab.metrics"}),
        (["attack", "--input", WIDE], 0, {"yumalab.ingest", "yumalab.metrics"}),
        (["tempo", "--input", TEMPO_CHAIN_INSTANCE], 0, {"yumalab.consensus"}),
        (["sweep", "--input", WIDE, "--scheme", "split"], 0, REPORT_MODULES),
        (["frontier", "--input", WIDE, "--transform", "log"], 0, REPORT_MODULES),
        (["robustness", "--input", WIDE, "--freq", "daily"], 0, REPORT_MODULES),
        (["synth", "--subnets", "1", "--wallets", "4", "--days", "1"],
         0, {"yumalab.ingest", "yumalab.synth"}),
        (["synth", "--reward-rule", "yuma_replay", "--subnets", "1", "--wallets", "6", "--days", "2"],
         0, {"yumalab.consensus", "yumalab.ingest", "yumalab.synth"}),
        (["--help"], 0, None),
        (["tempo", "--help"], 0, None),
        (["metrics", "--freq", "hourly"], 2, None),
    ], ids=["ingest", "metrics", "attack", "tempo", "sweep", "frontier", "robustness", "synth",
            "synth-replay", "help", "tempo-help", "usage-error"])
    def test_loaded_modules(self, tmp_path, python_child, args, code, extra):
        """`extra` is None for a run that stops in argparse."""
        done = python_child("-c", self.SCRIPT, *args, "--out", str(tmp_path), capture_output=True, text=True)
        loaded = LOADED_BY_PARSER if extra is None else LOADED_BY_CLI | extra
        assert json.loads(done.stdout.splitlines()[-1]) == [code, sorted(loaded), extra is not None, False]

    def test_parser_choices_are_the_library_constants(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        choices = {
            (command, action.dest): action.choices
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if action.choices is not None and action.dest != "format"
        }
        assert choices == {
            ("metrics", "freq"): ingest.FREQUENCIES,
            ("robustness", "freq"): ingest.FREQUENCIES,
            ("sweep", "scheme"): sweep.SCHEMES,
            ("synth", "reward_rule"): synth.REWARD_RULES,
        }


    def test_default_cutoff_is_the_dtao_cutoff(self):
        # The CLI's default text is formatted from the one dTAO instant.
        assert parse_timestamp(DEFAULT_CUTOFF_TEXT) == ingest.DTAO_CUTOFF


class TestProcessEntry:
    """`python -m yumalab.cli` runs `cli.main`, as the console script does.
    It ends the process without the interpreter's teardown; its exit status
    and the bytes it writes are those of a normal exit."""

    CLI = ("-m", "yumalab.cli")

    def test_help(self, python_child, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        done = python_child(*self.CLI, "--help", capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, build_parser().format_help(), "")

    def test_usage_error(self, python_child):
        done = python_child(*self.CLI, "metrics", "--freq", "hourly", capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: yumalab metrics ")
        assert done.stderr.splitlines()[-1].startswith("yumalab metrics: error: argument --freq: invalid choice")

    def test_missing_input(self, python_child, tmp_path):
        done = python_child(*self.CLI, "attack", "--input", "missing.jsonl", "--out", "x",
                            capture_output=True, text=True, cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: input file not found: missing.jsonl\n")
        assert os.listdir(tmp_path) == []

    def test_closed_stdout(self, python_child, tmp_path):
        # With fd 1 closed, sys.stdout is None and only stderr is flushed.
        done = python_child(*self.CLI, "tempo", "--input", TEMPO_CHAIN_INSTANCE, "--out", str(tmp_path / "child"),
                            stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (0, "")
        assert run_cli("tempo", "--input", TEMPO_CHAIN_INSTANCE, "--out", str(tmp_path / "parent")) == 0
        assert output_files(tmp_path / "child") == output_files(tmp_path / "parent")

    def test_failed_stdout_flush_exits_120(self, python_child):
        # The interpreter's own status when stdout cannot be flushed at exit,
        # reported as an ignored exception, not a traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = python_child(*self.CLI, "--help", stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert done.returncode == 120
        assert "Traceback" not in done.stderr
        assert done.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")

    HELP = pytest.mark.parametrize("args", [("--help",), ("metrics", "--help")], ids=["help", "metrics-help"])

    @HELP
    def test_failed_help_write_is_an_error_line(self, python_child, args):
        # With stdout unbuffered (-u) the help text reaches the device inside
        # run(), which names the failure.
        with open("/dev/full", "w") as full:
            done = python_child("-u", *self.CLI, *args, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 28] No space left on device\n")

    @HELP
    def test_failed_buffered_help_write_exits_120(self, python_child, args):
        # Block buffered, the help text waits in the buffer until the exit
        # flush, which fails as into a closed pipe: the interpreter's status.
        with open("/dev/full", "w") as full:
            done = python_child(*self.CLI, *args, stdout=full, stderr=subprocess.PIPE, text=True)
        assert done.returncode == 120
        assert "Traceback" not in done.stderr
        assert done.stderr.endswith("OSError: [Errno 28] No space left on device\n")

    @HELP
    def test_run_reports_a_failed_help_write(self, capsys, monkeypatch, args):
        monkeypatch.setattr("sys.stdout", FullStream())
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    FAULTS = pytest.mark.parametrize("args, code", [
        (("metrics", "--freq", "hourly"), 2),
        (("attack", "--input", "missing.jsonl", "--out", "x"), 1),
    ], ids=["usage-error", "missing-input"])

    @FAULTS
    def test_run_keeps_its_status_when_stderr_is_full(self, monkeypatch, tmp_path, args, code):
        # The error line is lost; the status still tells the fault.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stderr", FullStream())
        assert run_cli(*args) == code
        assert os.listdir(tmp_path) == []

    @FAULTS
    def test_full_stderr_keeps_the_exit_status(self, python_child, tmp_path, args, code):
        with open("/dev/full", "w") as full:
            done = python_child(*self.CLI, *args, stdout=subprocess.PIPE, stderr=full, text=True, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (code, "")


class FullStream:
    """A stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def relabel(source, target, rename) -> None:
    """Copy a JSONL event file with every wallet name passed through `rename`."""
    with open(source, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    names = sorted({row["wallet"] for row in rows})
    mapping = dict(zip(names, rename(names)))
    with open(target, "w", encoding="utf-8") as handle:
        for row in rows:
            row["wallet"] = mapping[row["wallet"]]
            handle.write(json.dumps(row) + "\n")


def keep_order(names):
    return [f"x{i:05d}" for i in range(len(names))]


def permute(names):
    return [f"x{i:05d}" for i in np.random.default_rng(3).permutation(len(names))]


class TestWalletRelabelling:
    """Wallet names are labels. A rename that keeps their sort order leaves
    every report byte-identical. A rename that permutes them moves rows
    within a snapshot, so sums over rows may round differently; the
    coalition fraction sorts stake and stays byte-identical."""

    @pytest.mark.parametrize("args", [
        ["attack"], ["metrics"], ["robustness", "--freq", "daily"], ["frontier"],
        ["sweep", "--scheme", "composite"],
    ], ids=["attack", "metrics", "robustness", "frontier", "sweep"])
    @pytest.mark.parametrize("source", ["fixture.jsonl", "wide.jsonl"])
    def test_order_keeping_rename(self, tmp_path, args, source):
        self.check(tmp_path, args, source, keep_order)

    @pytest.mark.parametrize("source", ["fixture.jsonl", "wide.jsonl"])
    def test_permuting_rename_keeps_coalitions(self, tmp_path, source):
        self.check(tmp_path, ["attack"], source, permute)

    def check(self, tmp_path, args, source, rename):
        original = os.path.join(DATA_DIR, source)
        renamed = tmp_path / source
        relabel(original, renamed, rename)
        outputs = []
        for name, path in (("original", original), ("renamed", renamed)):
            assert run_cli(*args, "--input", str(path), "--out", str(tmp_path / name)) == 0
            outputs.append(output_files(tmp_path / name))
        assert outputs[0] == outputs[1]


README = os.path.join(os.path.dirname(SRC_DIR), "README.md")


def readme_commands() -> list[str]:
    """Each `yumalab ...` line of README's sh blocks, continuations joined."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(), flags=re.M | re.S)
    return [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("yumalab ")]


class TestReadme:
    def test_commands_are_found(self):
        commands = readme_commands()
        assert len(commands) >= 10
        assert any("--reward-rule yuma_replay" in command for command in commands)

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_parses(self, command):
        try:
            build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit as exc:
            pytest.fail(f"exit {exc.code}: {command}")


def round9(value):
    """The JSON reports' rounding as a pass of its own: floats reduced to 9
    significant digits, tuples made lists and the non-finite kept."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(format(value, ".9g"))
    if isinstance(value, dict):
        return {key: round9(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round9(item) for item in value]
    return value


def oracle_json(payload) -> str:
    return json.dumps(round9(payload), indent=2) + "\n"


# Floats at the edges of the .9g text that is already its repr: around
# 1e-4 and 1e9, where .9g and repr switch to exponents, and 1e16, where
# repr does; integral values, whose repr adds ".0"; and subnormals.
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 1e-4, 9.99999999e-05, 9.999999995e-05, 0.000100000000049, 1e9, 999999999.0,
    999999999.4, 999999999.5, -999999999.5, 1e16, 9999999999999998.0, 1e16 + 2, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 100.0, 1e-05, 0.1, 1 / 3,
])
FLOATS = (st.floats() | EDGE_FLOATS | st.floats(-2e9, 2e9) | st.floats(-1e-3, 1e-3)
          | st.integers(-(2**60), 2**60).map(float))
JSON_FLOATS = FLOATS | FLOATS.map(np.float64)
# Non-ASCII text, control characters and lone surrogates.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\u00e9t\u00e9", "\ud800", "a\udfffb", "\U0001f600", '"\\/\b\f\n\r\t'])
SCALARS = JSON_FLOATS | TEXT | st.booleans() | st.none() | st.integers() | st.integers(-(2**70), 2**70)
PAYLOADS = st.recursive(
    SCALARS | st.lists(JSON_FLOATS, max_size=4) | st.dictionaries(TEXT, FLOATS, max_size=4),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24,
)


class TestJsonReport:
    """A JSON report holds the bytes json.dump(..., indent=2) writes for
    the payload with its floats rounded to 9 significant digits."""

    @settings(max_examples=400, deadline=None)
    @given(payload=PAYLOADS)
    def test_text_is_the_rounded_json_dump(self, payload):
        assert cli._json_text(payload) + "\n" == oracle_json(payload)

    @settings(max_examples=2000, deadline=None)
    @given(value=FLOATS)
    @example(value=math.nan)
    @example(value=-math.inf)
    def test_float_text(self, value):
        expected = json.dumps(float(format(value, ".9g")))
        assert cli._float_text(value) == expected
        assert cli._float_text(np.float64(value)) == expected

    # The fast path: a .9g text with a point and no exponent has at most 9
    # significant digits and lies in [1e-4, 1e9), where repr writes the
    # shortest round-trip digits positionally, and those are the .9g digits.
    @settings(max_examples=3000, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-2e9, 2e9)
           | st.floats(-2e-4, 2e-4))
    def test_positional_9g_text_is_its_repr(self, value):
        text = format(value, ".9g")
        if "." in text and "e" not in text:
            assert repr(float(text)) == text

    @pytest.mark.parametrize("payload", [
        np.int64(3), {1, 2}, {"a": [1.0, np.int64(3)]}, [{"b": {1.5}}],
    ], ids=["int64", "set", "nested-int64", "nested-set"])
    def test_type_error_as_json(self, tmp_path, payload):
        with pytest.raises(TypeError) as expected:
            oracle_json(payload)
        path = tmp_path / "report.json"
        with pytest.raises(TypeError) as raised:
            cli._write_json(str(path), payload)
        assert str(raised.value) == str(expected.value)
        assert not path.exists()

    def test_written_file(self, tmp_path):
        payload = {"x": [1.0, 2.5e-7, math.nan], "y": {"z": (True, None, 3)}, "w": "\u00e9"}
        path = tmp_path / "report.json"
        cli._write_json(str(path), payload)
        assert path.read_bytes() == oracle_json(payload).encode()
