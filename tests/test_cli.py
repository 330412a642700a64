"""CLI contract: exit codes, file schemas, formatting, determinism."""

import csv
import json
import os

import numpy as np
import pytest

from yumalab import ingest, model
from yumalab.cli import run
from yumalab.ingest import history_snapshots, load_events
from yumalab.metrics import ROLE_FILTERS, concentration_report
from yumalab.consensus import BondState, run_tempo
from yumalab.model import (
    EmissionParams,
    SnapshotEntry,
    SnapshotEvent,
    WeightMatrix,
    _MappingView,
)

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

    # The output directory, --grid and --cutoff are checked before any
    # input file is read.
    @pytest.mark.parametrize("args, message", [
        (("sweep", "--scheme", "bonus", "--grid", "abc"),
         "invalid grid 'abc'; expected comma-separated numbers"),
        (("attack", "--cutoff", "garbage"), "invalid timestamp 'garbage'"),
    ], ids=["grid", "cutoff"])
    def test_bad_flag_is_named_before_inputs(self, tmp_path, capsys, args, message):
        assert run_cli(*args, "--input", "/no/such.jsonl", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_output_directory_is_checked_before_the_grid(self, tmp_path, capsys):
        taken = tmp_path / "file"
        taken.write_text("")
        code = run_cli("sweep", "--scheme", "bonus", "--grid", "abc", "--input", "/no/such.jsonl",
                       "--out", str(taken))
        assert code == 1
        assert "File exists" in capsys.readouterr().err

    def test_empty_out_is_the_working_directory(self, tmp_path, monkeypatch, fixture_path):
        monkeypatch.chdir(tmp_path)
        assert run_cli("attack", "--input", fixture_path, "--out", "") == 0
        assert os.listdir(tmp_path) == ["coalition.csv"]

    def test_tempo_without_input(self, tmp_path, capsys):
        assert run_cli("tempo", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: tempo expects exactly one --input instance file\n"


class TestIngest:
    def test_summary_and_events(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--out", str(tmp_path)) == 0
        with open(tmp_path / "ingest_summary.json") as handle:
            summary = json.load(handle)
        assert summary["events"] == 4200
        assert summary["netuids"] == [0, 1, 2]
        assert summary["first_event"] == "2024-01-01T00:00:00Z"
        assert (tmp_path / "events.jsonl").exists()

    def test_cutoff_filters_events(self, tmp_path, fixture_path):
        assert run_cli("ingest", "--input", fixture_path, "--out", str(tmp_path),
                       "--cutoff", "2024-01-03T00:00:00Z") == 0
        with open(tmp_path / "ingest_summary.json") as handle:
            summary = json.load(handle)
        assert summary["events"] == 2 * 3 * 40  # two days survive

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
         "error: malformed tempo instance"),
        ({"params": [0.1]}, None, "error: malformed tempo instance"),
        ({"tempos": float("inf")}, None, "error: malformed tempo instance"),
        ({}, b'{"miners": ["m\xff"]}', "error: invalid UTF-8 in"),
        ({"tempos": 2.7}, None, "error: malformed tempo instance"),
        ({"tempos": True}, None, "error: malformed tempo instance"),
        ({"bonds": [[0.0, 0.0], [0.0, 0.0]], "tempo_index": 3.9}, None,
         "error: malformed tempo instance"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 0.5, "tempo_blocks": 360.9}}, None,
         "error: malformed tempo instance"),
        ({"params": {"alpha": 0.1, "beta": 0.5, "kappa": 2.0}}, None,
         "error: kappa must lie in (0, 1], got 2.0\n"),
        ({"delegations": [{"validator_id": "v1", "delegator_id": "d1", "amount": -1.0,
                           "take": 0.18}]}, None, "error: amount must be >= 0, got -1.0\n"),
        ({}, b"[" * 100_000 + b"]" * 100_000, "error: invalid JSON in"),
    ], ids=["ragged-bonds", "tempo-index", "params-not-object", "infinite-tempos", "non-utf8",
            "float-tempos", "bool-tempos", "float-tempo-index", "float-tempo-blocks",
            "params-invalid", "delegation-invalid", "deep-nesting"])
    def test_bad_instance_is_an_error_line(self, tmp_path, capsys, tempo_instance_path,
                                          fields, raw, message):
        with open(tempo_instance_path, encoding="utf-8") as handle:
            instance = {**json.load(handle), **fields}
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw if raw is not None else json.dumps(instance).encode())
        assert run_cli("tempo", "--input", str(bad), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err


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
                       "--transform", "power", "--param", "0.5") == 0
        labels = [r[0] for r in read_csv(tmp_path / "frontier.csv")[1:]]
        assert labels in (["cap:100", "power:0.5"], ["power:0.5", "cap:100"])

    def test_cap_requires_param(self, tmp_path, fixture_path):
        assert run_cli("frontier", "--input", fixture_path, "--out", str(tmp_path),
                       "--transform", "cap") == 1


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
        assert err.startswith(f"error: line {line}: invalid UTF-8 byte 0x")
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
        assert run_cli(command, "--input", str(path), "--out", str(out), "--format", "csv") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {message}")
        assert "Traceback" not in err
        assert os.listdir(out) == []


    def test_oversized_csv_field_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(",".join(ingest.EVENT_COLUMNS) + "\n" + self.CSV_ROW.format("a") + "\n"
                        + self.CSV_ROW.format("b" * 200_000) + "\n")
        assert run_cli("attack", "--input", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: invalid CSV: field larger than field limit (131072)\n"


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
        return code, os.listdir(out)

    @pytest.mark.parametrize("command", ["attack", "metrics", "frontier", "robustness", "sweep"])
    def test_reward_sum_names_wallet_and_netuid(self, tmp_path, capsys, command):
        rows = [dict(day=day, hour=hour, wallet=wallet, stake=1.0, reward=reward)
                for day in (1, 2)
                for wallet, hour, reward in (("w1", "00", 1e308), ("w1", "12", 1e308), ("w2", "00", 1.0))]
        assert self.run(tmp_path, command, rows) == (1, [])
        err = capsys.readouterr().err
        assert err == "error: rewards of wallet 'w1' in netuid 3 sum beyond the float64 range\n"

    @pytest.mark.parametrize("command, operation", [
        ("attack", "reduce"),
        ("metrics", "reduce"),
        ("frontier", "accumulate"),
        ("robustness", "accumulate"),
        ("sweep", "reduce"),
    ])
    def test_stake_sum_is_an_error_line(self, tmp_path, capsys, command, operation):
        rows = [dict(day=day, hour="00", wallet=wallet, stake=1e308, reward=1.0)
                for day in (1, 2) for wallet in ("w1", "w2")]
        assert self.run(tmp_path, command, rows) == (1, [])
        err = capsys.readouterr().err
        assert err == f"error: floating-point overflow encountered in {operation}\n"


class TestNoPerEntryObjects:
    """Every snapshot-based subcommand reads the snapshot columns; none of
    them builds a SnapshotEntry."""

    @pytest.mark.parametrize("args", [
        ["attack"], ["metrics"], ["metrics", "--freq", "weekly"], ["robustness"], ["frontier"],
        ["sweep", "--scheme", "split"], ["sweep", "--scheme", "bonus"],
        ["sweep", "--scheme", "composite"],
    ], ids=" ".join)
    def test_runs_with_entries_forbidden(self, tmp_path, fixture_path, monkeypatch, args):
        def forbidden(self):
            raise AssertionError("a SnapshotEntry was built")

        monkeypatch.setattr(SnapshotEntry, "__post_init__", forbidden)
        assert run_cli(*args, "--input", fixture_path, "--out", str(tmp_path)) == 0


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
