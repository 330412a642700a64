"""Validation behavior of the core value types."""

import dataclasses
import math
from datetime import datetime, timezone

import numpy as np
import pytest

import yumalab
from yumalab import _util, model
from yumalab.ingest import Dataset
from yumalab.model import (
    MINER_SHARE,
    OWNER_SHARE,
    VALIDATOR_SHARE,
    BondState,
    EmissionOutcome,
    EmissionParams,
    Role,
    SnapshotEntry,
    SnapshotEvent,
    SubnetSnapshot,
    ValidationError,
    WeightMatrix,
)

UTC = timezone.utc
T0 = datetime(2024, 1, 1, tzinfo=UTC)
T1 = datetime(2024, 1, 2, tzinfo=UTC)


def make_event(**overrides):
    fields = dict(
        timestamp=T0,
        block_number=100,
        netuid=1,
        wallet="w1",
        role=Role.MINER,
        stake=10.0,
        reward=0.5,
        trust=0.7,
        validator_trust=None,
    )
    fields.update(overrides)
    return SnapshotEvent(**fields)


class TestRole:
    def test_parse(self):
        assert Role.parse("miner") is Role.MINER
        assert Role.parse("validator") is Role.VALIDATOR

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError):
            Role.parse("owner")

    def test_string_value(self):
        assert Role.MINER.value == "miner"
        assert Role.VALIDATOR.value == "validator"


class TestSnapshotEvent:
    def test_miner_perf_comes_from_trust(self):
        event = make_event(trust=0.7)
        assert event.perf == 0.7

    def test_validator_perf_comes_from_validator_trust(self):
        event = make_event(role=Role.VALIDATOR, trust=None, validator_trust=0.9)
        assert event.perf == 0.9

    def test_missing_score_defaults_to_zero(self):
        event = make_event(trust=None)
        assert event.perf == 0.0

    def test_miner_rejects_validator_trust(self):
        with pytest.raises(ValidationError):
            make_event(validator_trust=0.5)

    def test_validator_rejects_trust(self):
        with pytest.raises(ValidationError):
            make_event(role=Role.VALIDATOR, trust=0.5, validator_trust=None)

    @pytest.mark.parametrize("score", [-0.01, 1.01, math.nan])
    def test_score_range(self, score):
        with pytest.raises(ValidationError):
            make_event(trust=score)

    @pytest.mark.parametrize("field", ["stake", "reward"])
    def test_negative_amounts_rejected(self, field):
        with pytest.raises(ValidationError):
            make_event(**{field: -1.0})

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            make_event(timestamp=datetime(2024, 1, 1))

    def test_negative_block_rejected(self):
        with pytest.raises(ValidationError):
            make_event(block_number=-1)

    def test_wallet_with_a_lone_surrogate_rejected(self):
        with pytest.raises(ValidationError, match="wallet must be valid Unicode text"):
            make_event(wallet="w\ud800")


class TestEmissionParams:
    def test_defaults(self):
        params = EmissionParams(alpha=0.1, beta=0.5)
        assert params.kappa == 0.5

    def test_alpha_and_beta_are_required(self):
        with pytest.raises(TypeError):
            EmissionParams()  # type: ignore[call-arg]

    def test_split_constants_sum_to_one_exactly(self):
        assert OWNER_SHARE + MINER_SHARE + VALIDATOR_SHARE == 1.0

    @pytest.mark.parametrize("field,value", [
        ("alpha", -0.1), ("alpha", 1.5),
        ("beta", -0.1), ("beta", 1.5),
        ("kappa", 0.0), ("kappa", 1.5),
    ])
    def test_parameter_ranges(self, field, value):
        kwargs = dict(alpha=0.1, beta=0.5)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            EmissionParams(**kwargs)


def make_snapshot(rows=None, netuid=7):
    """rows: (wallet, role, stake, reward, perf)."""
    if rows is None:
        rows = (
            ("a", Role.MINER, 5.0, 1.0, 0.2),
            ("b", Role.MINER, 3.0, 0.5, 0.9),
            ("c", Role.VALIDATOR, 20.0, 2.0, 0.8),
        )
    wallets, roles, stakes, rewards, perfs = zip(*rows) if rows else ((),) * 5
    names = tuple(dict.fromkeys(wallets))
    return SubnetSnapshot(netuid=netuid, window_start=T0, window_end=T1,
                          wallet=[names.index(wallet) for wallet in wallets], wallet_names=names,
                          miner=[role is Role.MINER for role in roles],
                          stake=stakes, reward=rewards, perf=perfs)


class TestSubnetSnapshot:
    def test_role_selection(self):
        snap = make_snapshot()
        assert snap.count() == 3
        assert snap.count(Role.MINER) == 2
        assert snap.wallets(Role.VALIDATOR) == ["c"]
        np.testing.assert_array_equal(snap.stakes(Role.MINER), [5.0, 3.0])
        np.testing.assert_array_equal(snap.rewards(), [1.0, 0.5, 2.0])
        np.testing.assert_array_equal(snap.perfs(Role.MINER), [0.2, 0.9])

    def test_duplicate_wallets_rejected(self):
        rows = (
            ("a", Role.MINER, 5.0, 1.0, 0.2),
            ("a", Role.VALIDATOR, 3.0, 0.5, 0.9),
        )
        with pytest.raises(ValidationError, match="duplicate wallet 'a' in snapshot for netuid 7"):
            make_snapshot(rows)

    @pytest.mark.parametrize("netuid", [1.7, "3", True, np.int64(3)])
    def test_netuid_must_be_an_int(self, netuid):
        with pytest.raises(ValidationError) as excinfo:
            make_snapshot(netuid=netuid)
        assert str(excinfo.value) == f"netuid must be an int, got {netuid!r}"

    def test_window_must_be_ordered(self):
        with pytest.raises(ValidationError):
            SubnetSnapshot(netuid=1, window_start=T1, window_end=T0, wallet=[], wallet_names=(),
                           miner=[], stake=[], reward=[], perf=[])

    def test_empty_snapshot(self):
        snap = make_snapshot(())
        assert snap.count() == 0
        assert snap.entries == ()
        assert snap.stakes(Role.MINER).shape == (0,)

    def test_entries_are_rows(self):
        assert make_snapshot().entries == (
            SnapshotEntry("a", Role.MINER, 5.0, 1.0, 0.2),
            SnapshotEntry("b", Role.MINER, 3.0, 0.5, 0.9),
            SnapshotEntry("c", Role.VALIDATOR, 20.0, 2.0, 0.8),
        )

    def test_columns_are_read_only(self):
        snap = make_snapshot()
        for column in (snap.miner, snap.stake, snap.reward, snap.perf):
            assert not column.flags.writeable
        assert snap.miner.dtype == np.bool_ and snap.stake.dtype == np.float64

    @pytest.mark.parametrize("row, message", [
        (("", Role.MINER, 1.0, 1.0, 0.5), "wallet must be a non-empty string"),
        (("x\udfff", Role.MINER, 1.0, 1.0, 0.5), "wallet must be valid Unicode text"),
        (("x", Role.MINER, -1.0, 1.0, 0.5), "stake must be >= 0, got -1.0"),
        (("x", Role.MINER, math.inf, 1.0, 0.5), "stake must be finite, got inf"),
        (("x", Role.MINER, 1.0, math.nan, 0.5), "reward must be finite, got nan"),
        (("x", Role.MINER, 1.0, -0.5, 0.5), "reward must be >= 0, got -0.5"),
        (("x", Role.MINER, 1.0, 1.0, 1.5), r"perf must lie in \[0, 1\], got 1.5"),
        (("x", Role.MINER, 1.0, 1.0, math.nan), "perf must be finite, got nan"),
    ])
    def test_entry_rules_hold_on_columns(self, row, message):
        with pytest.raises(ValidationError, match=message):
            make_snapshot((("a", Role.VALIDATOR, 1.0, 1.0, 0.5), row))
        # The same row is rejected, with the same message, as a SnapshotEntry.
        with pytest.raises(ValidationError, match=message):
            SnapshotEntry(*row)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError, match="equal lengths"):
            SubnetSnapshot(netuid=1, window_start=T0, window_end=T1, wallet=[0, 1], wallet_names=("a", "b"),
                           miner=[True], stake=[1.0], reward=[1.0], perf=[0.5])
        with pytest.raises(ValidationError, match="equal lengths"):
            SubnetSnapshot(netuid=1, window_start=T0, window_end=T1, wallet=[0], wallet_names=("a",),
                           miner=[True], stake=[1.0, 2.0], reward=[1.0], perf=[0.5])

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            SubnetSnapshot(netuid=1, window_start=T0, window_end=T1, wallet=[0], wallet_names=("a",),
                           miner=[True], stake=[[1.0]], reward=[1.0], perf=[0.5])


def _snapshot_of_table(names, wallet=(0,)):
    n = len(wallet)
    return SubnetSnapshot(netuid=7, window_start=T0, window_end=T1, wallet=list(wallet), wallet_names=names,
                          miner=[True] * n, stake=[1.0] * n, reward=[1.0] * n, perf=[0.5] * n)


def _dataset_of_table(names):
    return Dataset(timestamp=[0], block_number=[0], netuid=[1], wallet=[0], miner=[True], stake=[1.0],
                   reward=[0.0], trust=[math.nan], validator_trust=[math.nan], wallet_names=names)


class TestWalletNames:
    """The wallet-name rule, stated once by model.WalletNames, for every
    table and row view that holds a wallet name."""

    def test_a_table_passes_through_unchanged(self):
        table = model.WalletNames(["a", "b"])
        assert isinstance(table, tuple) and table == ("a", "b")
        assert model.WalletNames(table) is table
        assert _snapshot_of_table(table).wallet_names is table
        assert _dataset_of_table(table).wallet_names is table

    @pytest.mark.parametrize("names, message", [
        (("a", 7), "wallet must be a non-empty string, got 7"),
        (("a", ""), "wallet must be a non-empty string, got ''"),
        (("a", "x\udfff"), "wallet must be valid Unicode text, got 'x\\udfff'"),
        (("a", "b", "a"), "duplicate wallet 'a' in wallet_names"),
    ], ids=["int", "empty", "lone-surrogate", "duplicate"])
    def test_every_table_refuses_a_bad_name(self, names, message):
        for make in (model.WalletNames, _snapshot_of_table, _dataset_of_table):
            with pytest.raises(ValidationError) as excinfo:
                make(names)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("wallet", [7, b"w1", None])
    def test_row_views_refuse_a_wallet_of_another_kind(self, wallet):
        message = f"wallet must be a non-empty string, got {wallet!r}"
        with pytest.raises(ValidationError) as excinfo:
            make_event(wallet=wallet)
        assert str(excinfo.value) == message
        with pytest.raises(ValidationError) as excinfo:
            SnapshotEntry(wallet, Role.MINER, 1.0, 1.0, 0.5)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("code", [-1, 2])
    def test_snapshot_code_out_of_range_is_refused(self, code):
        with pytest.raises(ValidationError) as excinfo:
            _snapshot_of_table(("a", "b"), wallet=(0, code))
        assert str(excinfo.value) == f"wallet code {code} is not in wallet_names"

    def test_snapshot_repeated_code_is_refused(self):
        with pytest.raises(ValidationError) as excinfo:
            _snapshot_of_table(("a", "b", "c"), wallet=(1, 0, 2, 0, 1))
        assert str(excinfo.value) == "duplicate wallet 'a' in snapshot for netuid 7"

    # The first name or code seen twice is named, wherever it falls; each
    # search is one pass over the table.
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_duplicate_name_is_named_wherever_it_falls(self, where):
        names = [f"w{i}" for i in range(1000)]
        at = {"first": 1, "middle": 500, "last": 999}[where]
        duplicate = names[at - 1 if where == "first" else 0]
        names[at] = duplicate
        for make in (model.WalletNames, _snapshot_of_table, _dataset_of_table):
            with pytest.raises(ValidationError) as excinfo:
                make(names)
            assert str(excinfo.value) == f"duplicate wallet {duplicate!r} in wallet_names"

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_repeated_code_is_named_wherever_it_falls(self, where):
        names = tuple(f"w{i}" for i in range(1000))
        wallet = list(range(1000))
        at = {"first": 1, "middle": 500, "last": 999}[where]
        wallet[at] = wallet[at - 1 if where == "first" else 3]
        with pytest.raises(ValidationError) as excinfo:
            _snapshot_of_table(names, wallet=wallet)
        assert str(excinfo.value) == f"duplicate wallet {names[wallet[at]]!r} in snapshot for netuid 7"

    def test_snapshot_rows_name_their_wallets(self):
        snap = _snapshot_of_table(("a", "b", "c"), wallet=(2, 0))
        assert snap.wallets() == ["c", "a"]
        assert [entry.wallet for entry in snap.entries] == ["c", "a"]
        assert snap.wallet.dtype == np.int64 and not snap.wallet.flags.writeable


class TestWeightMatrix:
    def test_basic_shape(self):
        wm = WeightMatrix(
            validators=(("v1", 3.0), ("v2", 1.0)),
            miners=("m1", "m2", "m3"),
            weights=np.full((2, 3), 0.5),
        )
        assert wm.n_validators == 2
        assert wm.n_miners == 3
        np.testing.assert_array_equal(wm.stakes, [3.0, 1.0])
        assert not wm.weights.flags.writeable

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            WeightMatrix(
                validators=(("v1", 1.0),),
                miners=("m1", "m2"),
                weights=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_weight_range(self, bad):
        with pytest.raises(ValidationError):
            WeightMatrix(
                validators=(("v1", 1.0),),
                miners=("m1",),
                weights=np.array([[bad]]),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            WeightMatrix(
                validators=(("v1", 1.0), ("v1", 2.0)),
                miners=("m1",),
                weights=np.zeros((2, 1)),
            )

    def test_negative_stake_rejected(self):
        with pytest.raises(ValidationError):
            WeightMatrix(
                validators=(("v1", -1.0),),
                miners=("m1",),
                weights=np.zeros((1, 1)),
            )


class TestEmissionOutcome:
    def _outcome(self, miner_shares, no_ranking_mass=False, **mappings):
        """An outcome built from id -> value mappings: the miner and
        validator ids are the keys of the two share mappings."""
        views = {"miner_shares": miner_shares, "validator_shares": {"v1": 1.0},
                 "delegator_rewards": {}, **mappings}
        miners, validators = tuple(views["miner_shares"]), tuple(views["validator_shares"])
        views.setdefault("miner_tao", dict.fromkeys(miners, 0.0))
        views.setdefault("validator_tao", dict.fromkeys(validators, 41.0))
        return EmissionOutcome(
            block_emission=100.0,
            owner_amount=18.0,
            miners=miners,
            validators=validators,
            delegators=tuple(views["delegator_rewards"]),
            miner_share_vec=list(views["miner_shares"].values()),
            validator_share_vec=list(views["validator_shares"].values()),
            miner_tao_vec=list(views["miner_tao"].values()),
            validator_tao_vec=list(views["validator_tao"].values()),
            delegator_reward_vec=list(views["delegator_rewards"].values()),
            bond_state=BondState(np.zeros((len(validators), len(miners))), tempo_index=1),
            no_ranking_mass=no_ranking_mass,
        )

    def test_miner_shares_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            self._outcome({"m1": 0.4, "m2": 0.4})

    def test_zero_shares_require_flag(self):
        with pytest.raises(ValidationError):
            self._outcome({"m1": 0.0, "m2": 0.0})
        outcome = self._outcome({"m1": 0.0, "m2": 0.0}, no_ranking_mass=True)
        assert outcome.no_ranking_mass

    def test_flag_forbids_nonzero_shares(self):
        with pytest.raises(ValidationError):
            self._outcome({"m1": 1.0, "m2": 0.0}, no_ranking_mass=True)

    @pytest.mark.parametrize("name, mapping, message", [
        ("miner_tao", {"m1": 1.0, "m2": -1.0, "m3": -2.0}, "miner_tao['m2'] must be >= 0, got -1.0"),
        ("miner_tao", {"m1": 1.0, "m2": math.nan, "m3": -1.0},
         "miner_tao['m2'] must be finite, got nan"),
        ("delegator_rewards", {"d1": 2.0, "d2": math.inf},
         "delegator_rewards['d2'] must be finite, got inf"),
        ("validator_shares", {"v1": -0.5, "v2": math.nan},
         "validator_shares['v1'] must be >= 0, got -0.5"),
    ], ids=["negative", "nan", "inf", "first-of-two"])
    def test_first_bad_mapping_value_is_named(self, name, mapping, message):
        with pytest.raises(ValidationError) as excinfo:
            self._outcome({"m1": 0.5, "m2": 0.5, "m3": 0.0}, **{name: mapping})
        assert str(excinfo.value) == message

    def test_mapping_values_are_python_floats(self):
        outcome = self._outcome(
            {"m1": np.float64(0.25), "m2": 0.75},
            miner_tao={"m1": 1, "m2": np.float64(2.5)},
            delegator_rewards={"d1": np.float32(0.5)},
        )
        for name in ("miner_shares", "validator_shares", "miner_tao", "validator_tao",
                     "delegator_rewards"):
            assert all(type(value) is float for value in getattr(outcome, name).values())
        assert outcome.miner_tao == {"m1": 1.0, "m2": 2.5}

    def test_views_follow_id_order_and_are_cached(self):
        outcome = self._outcome({"m2": 0.25, "m1": 0.75}, delegator_rewards={"d2": 1.0, "d1": 2.0})
        assert list(outcome.miner_shares.items()) == [("m2", 0.25), ("m1", 0.75)]
        assert list(outcome.delegator_rewards) == ["d2", "d1"]
        assert outcome.miner_shares is outcome.miner_shares
        assert outcome.delegators == ("d2", "d1")

    def test_arrays_are_read_only(self):
        outcome = self._outcome({"m1": 1.0})
        for name in ("miner_share_vec", "validator_share_vec", "miner_tao_vec",
                     "validator_tao_vec", "delegator_reward_vec"):
            array = getattr(outcome, name)
            assert array.dtype == np.float64 and not array.flags.writeable

    def test_bonds_and_tempo_index_come_from_the_bond_state(self):
        outcome = self._outcome({"m1": 0.5, "m2": 0.5})
        assert outcome.bonds is outcome.bond_state.bonds
        assert outcome.tempo_index == outcome.bond_state.tempo_index == 1

    def test_equality_is_identity(self):
        a, b = self._outcome({"m1": 1.0}), self._outcome({"m1": 1.0})
        assert a == a and a != b

    @pytest.mark.parametrize("change, message", [
        ({"miners": ("m1", "m1")}, "ids in miners must be unique"),
        ({"delegators": ("d1",)}, "delegator_reward_vec must hold one value per id of delegators"),
        ({"validator_tao_vec": [[41.0]]}, "validator_tao_vec must hold one value per id of validators"),
        ({"bond_state": np.zeros((1, 2))}, "bond_state must be a BondState"),
        ({"bond_state": BondState(np.zeros((2, 2)))},
         "bonds shape (2, 2) does not match the ids"),
        # Every shape is checked before any value.
        ({"miner_tao_vec": [-1.0, 0.0], "delegators": ("d1",)},
         "delegator_reward_vec must hold one value per id of delegators"),
    ], ids=["duplicate-ids", "short-array", "matrix-array", "raw-bonds", "bond-shape",
            "value-fault-before-a-shape-fault"])
    def test_column_shapes_are_checked(self, change, message):
        fields = {f.name: getattr(self._outcome({"m1": 0.5, "m2": 0.5}), f.name)
                  for f in dataclasses.fields(EmissionOutcome)}
        with pytest.raises(ValidationError) as excinfo:
            EmissionOutcome(**{**fields, **change})
        assert str(excinfo.value) == message


class TestBondState:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf, -math.inf])
    def test_entries_outside_the_unit_interval_are_rejected(self, bad):
        with pytest.raises(ValidationError) as excinfo:
            BondState(np.array([[0.5, bad]]))
        assert str(excinfo.value) == "bond entries must lie in [0, 1]"

    def test_bounds_are_inclusive(self):
        assert BondState(np.array([[0.0, 1.0]]), tempo_index=3).tempo_index == 3


def _dataset_with_stake(stake):
    nan = [math.nan, math.nan]
    return Dataset(timestamp=[0, 1], block_number=[0, 0], netuid=[1, 1], wallet=[0, 0],
                   miner=[True, True], stake=stake, reward=[0.0, 0.0], trust=nan,
                   validator_trust=nan, wallet_names=("w",))


def _snapshot_with(**columns):
    fields = dict(miner=[True, False], stake=[1.0, 2.0], reward=[0.5, 0.5], perf=[0.1, 0.2])
    return SubnetSnapshot(netuid=1, window_start=T0, window_end=T1, wallet=[0, 1],
                          wallet_names=("a", "b"), **{**fields, **columns})


# name -> (the caller's array, the column built from it)
CALLER_ARRAYS = {
    "weight_matrix": (lambda: np.zeros((1, 2)),
                      lambda a: WeightMatrix(validators=(("v1", 1.0),), miners=("m1", "m2"),
                                             weights=a).weights),
    "bond_state": (lambda: np.zeros((1, 2)), lambda a: BondState(a).bonds),
    "snapshot_stake": (lambda: np.array([1.0, 2.0]), lambda a: _snapshot_with(stake=a).stake),
    "snapshot_miner": (lambda: np.array([True, False]), lambda a: _snapshot_with(miner=a).miner),
    "dataset_stake": (lambda: np.array([1.0, 2.0]), lambda a: _dataset_with_stake(a).stake),
}


class TestCallerArrays:
    """Construction never freezes an array that the caller still holds: a
    writable one is copied, and a read-only one is shared."""

    @pytest.mark.parametrize("name", sorted(CALLER_ARRAYS))
    def test_writable_array_is_copied(self, name):
        make, build = CALLER_ARRAYS[name]
        array = make()
        column = build(array)
        before = column.copy()
        array.flat[0] = not array.flat[0] if array.dtype == bool else 0.5
        assert array.flags.writeable
        assert not column.flags.writeable
        np.testing.assert_array_equal(column, before)

    @pytest.mark.parametrize("name", sorted(CALLER_ARRAYS))
    def test_read_only_array_is_shared(self, name):
        make, build = CALLER_ARRAYS[name]
        array = make()
        array.setflags(write=False)
        assert build(array) is array

    def test_view_of_a_writable_array_is_copied(self):
        base = np.zeros((2, 2))
        bonds = BondState(base[:1]).bonds
        base[0, 0] = 0.5
        assert bonds[0, 0] == 0.0


def fresh_interpreter(python_child, script: str) -> str:
    """The last stdout line of `script` run in a new interpreter on src/."""
    done = python_child("-c", script, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


class TestPackageNamespace:
    """`yumalab` resolves its public names from yumalab.model on first use."""

    @pytest.mark.parametrize("name", [name for name in yumalab.__all__ if name != "__version__"])
    def test_public_name_is_the_model_object(self, name):
        assert getattr(yumalab, name) is getattr(model, name)

    def test_validation_error_is_one_class(self):
        assert yumalab.ValidationError is model.ValidationError is _util.ValidationError
        with pytest.raises(model.ValidationError, match="invalid law parameters"):
            _util.name_args("pareto:x", "law")

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'yumalab' has no attribute 'nosuch'"):
            yumalab.nosuch  # noqa: B018

    def test_from_import_still_loads_a_submodule(self, python_child):
        assert fresh_interpreter(python_child, "from yumalab import cli\nprint(cli.__name__)") == "yumalab.cli"

    def test_import_alone_loads_no_numpy(self, python_child):
        script = "import sys, yumalab\nprint(yumalab.__version__, 'numpy' in sys.modules)"
        assert fresh_interpreter(python_child, script) == f"{yumalab.__version__} False"
