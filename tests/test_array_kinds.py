"""One array kind rule for every public function and type that takes an array.

A number slot takes a list or tuple of ints and floats (a bool is never a
number) or an integer or float array; an int slot takes ints or an integer
array; a mask takes bools or a bool array. Everything else is refused with
a ValidationError that names the slot, rather than converted."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from yumalab.consensus import (
    clip_benchmarks,
    miner_emission_shares,
    validator_bonds,
    validator_emission_shares,
)
from yumalab.ingest import Dataset
from yumalab.interventions import (
    TransformSpec,
    apply_stake_transform,
    bonus_rewards,
    composite_ranks,
    nearest_rank_percentile,
    perf_weighted_rewards,
    unit_rescale,
    whale_penalty,
)
from yumalab.metrics import coalition_fraction, gini, hhi, pearson, top_share
from yumalab.model import BondState, EmissionOutcome, SubnetSnapshot, ValidationError, WeightMatrix

NAN = math.nan
T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
T1 = datetime(2024, 1, 2, tzinfo=timezone.utc)


def _wm(weights=((1, 0), (0, 1))):
    return WeightMatrix(validators=(("v1", 3.0), ("v2", 1.0)), miners=("m1", "m2"), weights=weights)


def _snapshot(**columns):
    fields = dict(wallet=[0, 1, 2], miner=[True, False, True], stake=[1, 2, 4], reward=[0, 1, 3], perf=[0, 1, 1])
    return SubnetSnapshot(netuid=1, window_start=T0, window_end=T1, wallet_names=("a", "b", "c"),
                          **{**fields, **columns})


def _dataset(**columns):
    fields = dict(timestamp=[0, 1], block_number=[0, 7], netuid=[1, 1], wallet=[0, 1], miner=[True, False],
                  stake=[1, 2], reward=[0, 3], trust=[1, NAN], validator_trust=[NAN, 0])
    return Dataset(**{**fields, **columns}, wallet_names=("a", "b"))


def _outcome(**vecs):
    fields = dict(miner_share_vec=[1, 0], validator_share_vec=[1, 0], miner_tao_vec=[41, 0],
                  validator_tao_vec=[41, 0], delegator_reward_vec=[2])
    return EmissionOutcome(block_emission=100.0, owner_amount=18.0, miners=("m1", "m2"),
                           validators=("v1", "v2"), delegators=("d1",), bond_state=BondState.initial(2, 2),
                           **{**fields, **vecs})


# Every array slot: "function.argument" (or "Type.field") -> (kind, a valid
# value, and a call that puts a value in that one slot, with every other
# argument valid, and returns what the slot's value decides). The valid
# values are exact in float32, and integers where that is valid.
SLOTS = {
    "gini.values": ("number", [1, 2, 4], gini),
    "hhi.values": ("number", [1, 2, 4], hhi),
    "top_share.values": ("number", [1, 2, 4], lambda v: top_share(v, 0.5)),
    "coalition_fraction.stakes": ("number", [1, 2, 4], coalition_fraction),
    "pearson.x": ("number", [1, 2, 4], lambda v: pearson(v, [3, 1, 2])),
    "pearson.y": ("number", [3, 1, 2], lambda v: pearson([1, 2, 4], v)),
    "perf_weighted_rewards.rewards": ("number", [1, 2, 3],
                                      lambda v: perf_weighted_rewards(v, [0, 1, 1], [True, False, True], 0.5)),
    "perf_weighted_rewards.perfs": ("number", [0, 1, 1],
                                    lambda v: perf_weighted_rewards([1, 2, 3], v, [True, False, True], 0.5)),
    "perf_weighted_rewards.miners": ("bool", [True, False, True],
                                     lambda v: perf_weighted_rewards([1, 2, 3], [0, 1, 1], v, 0.5)),
    "composite_ranks.base_ranks": ("number", [0, 1, 0], lambda v: composite_ranks(v, [1, 1, 0], 0.5)),
    "composite_ranks.perfs": ("number", [1, 1, 0], lambda v: composite_ranks([0, 1, 0], v, 0.5)),
    "bonus_rewards.rewards": ("number", [1, 2, 3], lambda v: bonus_rewards(v, [0, 1, 1], 0.5)),
    "bonus_rewards.perfs": ("number", [0, 1, 1], lambda v: bonus_rewards([1, 2, 3], v, 0.5)),
    "unit_rescale.values": ("number", [1, 3, 2], unit_rescale),
    "nearest_rank_percentile.values": ("number", [3, 1, 2], lambda v: nearest_rank_percentile(v, 50.0)),
    "apply_stake_transform.stakes": ("number", [1, 2, 3, 4],
                                     lambda v: apply_stake_transform(v, TransformSpec("cap", 50.0))),
    "whale_penalty.original": ("number", [1, 2, 8], lambda v: whale_penalty(v, [1, 2, 3])),
    "whale_penalty.transformed": ("number", [1, 2, 3], lambda v: whale_penalty([1, 2, 8], v)),
    "clip_benchmarks.weights": ("number", [[1, 0], [0, 1]], lambda v: clip_benchmarks(v, [3, 1], 0.5)),
    "clip_benchmarks.stakes": ("number", [3, 1], lambda v: clip_benchmarks([[1, 0], [0, 1]], v, 0.5)),
    "miner_emission_shares.clipped": ("number", [[1, 0], [1, 1]], lambda v: miner_emission_shares(v, [3, 1])),
    "miner_emission_shares.stakes": ("number", [3, 1], lambda v: miner_emission_shares([[1, 0], [1, 1]], v)),
    "validator_bonds.clipped": ("number", [[1, 0], [0, 1]],
                                lambda v: validator_bonds(_wm(), v, 0.5, 0.1, BondState.initial(2, 2)).bonds),
    "validator_emission_shares.miner_shares": (
        "number", [1, 0], lambda v: validator_emission_shares(BondState([[1, 0], [0, 1]]), v)),
    "WeightMatrix.weights": ("number", [[1, 0], [0, 1]], lambda v: _wm(v).weights),
    "BondState.bonds": ("number", [[1, 0], [0, 1]], lambda v: BondState(v).bonds),
    **{f"SubnetSnapshot.{name}": (kind, value, lambda v, name=name: getattr(_snapshot(**{name: v}), name))
       for name, kind, value in (("wallet", "int", [0, 1, 2]), ("miner", "bool", [True, False, True]),
                                 ("stake", "number", [1, 2, 4]), ("reward", "number", [0, 1, 3]),
                                 ("perf", "number", [0, 1, 1]))},
    **{f"Dataset.{name}": (kind, value, lambda v, name=name: getattr(_dataset(**{name: v}), name))
       for name, kind, value in (("timestamp", "int", [0, 1]), ("block_number", "int", [0, 7]),
                                 ("netuid", "int", [1, 1]), ("wallet", "int", [0, 1]),
                                 ("miner", "bool", [True, False]), ("stake", "number", [1, 2]),
                                 ("reward", "number", [0, 3]), ("trust", "number", [1, NAN]),
                                 ("validator_trust", "number", [NAN, 0]))},
    **{f"EmissionOutcome.{name}": ("number", value, lambda v, name=name: getattr(_outcome(**{name: v}), name))
       for name, value in (("miner_share_vec", [1, 0]), ("validator_share_vec", [1, 0]),
                           ("miner_tao_vec", [41, 0]), ("validator_tao_vec", [41, 0]),
                           ("delegator_reward_vec", [2]))},
}


def _cells(value):
    return [cell for row in value for cell in _cells(row)] if isinstance(value, list) else [value]


def _with_first_cell(value, cell):
    """`value` with its first cell replaced by `cell`."""
    if isinstance(value, list):
        return [_with_first_cell(value[0], cell), *value[1:]]
    return cell


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _bits(result) -> bytes:
    if isinstance(result, tuple):
        return b"".join(map(_bits, result))
    array = np.asarray(result)
    return array.dtype.str.encode() + array.tobytes()


def _accepted(kind, value):
    """The forms of `value` that the slot's kind accepts."""
    forms = {"list": value, "tuple": _tuples(value)}
    if kind == "number":
        forms.update(float64=np.array(value, dtype=np.float64), float32=np.array(value, dtype=np.float32))
        if not any(map(math.isnan, _cells(value))):  # the valid numbers are integers, or NaN
            forms["int64"] = np.array(value, dtype=np.int64)
    elif kind == "int":
        forms.update(int64=np.array(value, dtype=np.int64), int32=np.array(value, dtype=np.int32),
                     uint16=np.array(value, dtype=np.uint16))
    else:
        forms["bool"] = np.array(value, dtype=bool)
    return forms


# Per kind: what its scalar rule calls a valid cell and its array rule the
# cells of a valid array, the cells it refuses, the array dtypes it refuses,
# and a cell beyond its dtype's range.
KINDS = {
    "number": ("a real number", "real numbers", ["1", True, None], [object, str, bool], 10**400),
    "int": ("an int", "ints", ["1", True, None, 1.0], [object, str, bool, np.float64], 2**63),
    "bool": ("a bool", "bools", ["no", 1, 0.5, None], [object, str, np.int64, np.float64], None),
}


def _refusals(kind, name):
    """(case id, a function of a valid value that makes the refused value,
    the error message) for each refusal of a slot of `kind` named `name`."""
    cell_noun, array_noun, cells, dtypes, huge = KINDS[kind]
    for cell in cells:
        yield (f"{type(cell).__name__}-cell", lambda v, cell=cell: _with_first_cell(v, cell),
               f"{name} must be {cell_noun}, got {cell!r}")
    for dtype in dtypes:
        dtype = np.dtype(dtype)
        yield (f"{dtype.kind}-array", lambda v, dtype=dtype: np.ones(np.shape(v), dtype=dtype),
               f"{name} must hold {array_noun}, got dtype {np.ones(1, dtype=dtype).dtype}")
    if huge is not None:
        dtype = "int64" if kind == "int" else "float64"
        yield "huge-cell", lambda v: _with_first_cell(v, huge), f"{name} must be within {dtype} range, got {huge}"
    if kind == "int":
        yield ("huge-uint64-array", lambda v: np.full(np.shape(v), 2**64 - 1, dtype=np.uint64),
               f"{name} must be within int64 range, got {2**64 - 1}")


REFUSALS = [(slot, *refusal) for slot, (kind, _, _) in SLOTS.items()
            for refusal in _refusals(kind, slot.split(".")[1])]


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_accepted_forms_give_the_same_bits(slot):
    kind, value, call = SLOTS[slot]
    forms = _accepted(kind, value)
    expected = _bits(call(forms.pop("list")))
    for form, variant in forms.items():
        assert _bits(call(variant)) == expected, form


@pytest.mark.parametrize("slot, case, make, message", REFUSALS,
                         ids=[f"{slot}-{case}" for slot, case, _, _ in REFUSALS])
def test_other_kinds_are_refused(slot, case, make, message):
    _, value, call = SLOTS[slot]
    with pytest.raises(ValidationError) as excinfo:
        call(make(value))
    assert str(excinfo.value) == message
