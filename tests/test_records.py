"""The __slots__ record classes against their frozen-dataclass twins.

Every record class in the library (tower.Record subclasses) must behave
like the frozen dataclass it replaced: the same ==, hash and repr, the
same refusal of attribute writes, positional and keyword construction,
and the same ValueError messages on bad input.  The twins live in
tests/oracles.py.  Copies and pickles go back through the constructor.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TWINS
from resavg.grigorchuk import LevelQuotient
from resavg.linear import EllTable, IntMatrix, PowerSelectionParams
from resavg.tower import IndexTower, LevelDecomposition, Record, levels

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# (class, keyword arguments of a valid instance); keyword order is the
# parameter order, so the values also serve as positional arguments.
VALID = [
    (IndexTower, {"name": "t", "d": [2, 6, 6], "l": (2, 12, "36")}),
    (LevelDecomposition, {"r": 3, "s": 5, "t": 7}),
    (IntMatrix, {"entries": [[1, 2], ("3", 4)]}),
    (
        EllTable,
        {"n": 1, "primes": [3, 5], "rows": [[0, 1], [0, 1]], "orders": ("2", 4)},
    ),
    (
        PowerSelectionParams,
        {"n": 1, "N": 2, "C": 5, "delta": "2/5", "epsilon": 0.2},
    ),
    (LevelQuotient, {"level": 3, "order": 128}),
]
VALID_IDS = [cls.__name__ for cls, _ in VALID]

# A second valid instance of each class, differing in one field.
OTHER = {
    IndexTower: {"name": "t", "d": [2, 6, 6], "l": [2, 12, 72]},
    LevelDecomposition: {"r": 3, "s": 5, "t": 8},
    IntMatrix: {"entries": [[1, 2], [3, 5]]},
    EllTable: {"n": 1, "primes": [3, 5], "rows": [[0, 1], [1, 2]], "orders": [2, 4]},
    PowerSelectionParams: {"n": 1, "N": 3, "C": 5, "delta": "2/5", "epsilon": "1/5"},
    LevelQuotient: {"level": 4, "order": 128},
}

# (class, positional arguments) that every constructor must refuse alike.
INVALID = [
    (IndexTower, ("t", (2, 3), (2,))),
    (IndexTower, ("t", (), ())),
    (IndexTower, ("t", (1,), (1,))),
    (IndexTower, ("t", (2,), (0,))),
    (IndexTower, ("t", (3, 2), (3, 6))),
    (IndexTower, ("t", ("x",), (2,))),
    (IndexTower, ("t", (2,), (-(10**5000),))),
    (IndexTower, ("t", 5, (2,))),
    (IndexTower, ("t", (2,))),
    (LevelDecomposition, (1, 2)),
    (IntMatrix, ([],)),
    (IntMatrix, ([[1, 2], [3]],)),
    (IntMatrix, ([["a"]],)),
    (EllTable, (0, (3,), ((0,),), (2,))),
    (EllTable, (1, (3, 5), ((0,),), (2,))),
    (EllTable, (1, (), (), ())),
    (EllTable, (1, (3, 5), ((0,), (0, 1)), (2, 4))),
    (EllTable, (1, (4,), ((0,),), (2,))),
    (EllTable, (1, (5, 3), ((0,), (0,)), (4, 2))),
    (EllTable, (2, (3,), ((0,),), (81,))),
    (EllTable, (1, (3,), ((-1,),), (2,))),
    (EllTable, (1, (3,), ((1, 0),), (2,))),
    (EllTable, (1, (3,), ((0, 2),), (2,))),
    (PowerSelectionParams, (0, 2, 5, "2/5", "1/5")),
    (PowerSelectionParams, (1, 1, 5, "2/5", "1/5")),
    (PowerSelectionParams, (1, 2, 4, "2/5", "1/5")),
    (PowerSelectionParams, (1, 2, 5, "1/2", "1/5")),
    (PowerSelectionParams, (1, 2, 5, "2/5", "2/5")),
    (PowerSelectionParams, (1, 2, 5, "2/0", "1/5")),
    (LevelQuotient, (1, 2, 3)),
]


def build(cls, kwargs):
    return cls(**kwargs), TWINS[cls](**kwargs)


def outcome(make):
    """repr and hash of what `make` builds, or the type and message it raises."""
    try:
        obj = make()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return repr(obj), hash(obj)


def test_every_record_class_has_a_twin():
    assert set(TWINS) == {cls for cls, _ in VALID}
    assert all(issubclass(cls, Record) for cls in TWINS)


@pytest.mark.parametrize("cls, kwargs", VALID, ids=VALID_IDS)
class TestAgainstTwin:
    def test_repr_and_hash(self, cls, kwargs):
        obj, twin = build(cls, kwargs)
        assert repr(obj) == repr(twin)
        assert hash(obj) == hash(twin)

    def test_positional_and_keyword_construction(self, cls, kwargs):
        by_position = cls(*kwargs.values())
        by_keyword = cls(**kwargs)
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert repr(by_position) == repr(TWINS[cls](*kwargs.values()))

    def test_equality(self, cls, kwargs):
        obj, twin = build(cls, kwargs)
        other = copy.copy(obj)
        assert other is not obj
        assert obj == other and not obj != other
        for stranger in (None, 1, tuple(kwargs.values())):
            assert (obj == stranger) is (twin == stranger) is False
            assert (obj != stranger) is (twin != stranger) is True
        assert (obj == twin) is (twin == obj) is False
        assert (obj != twin) is (twin != obj) is True
        assert obj.__eq__(twin) is NotImplemented
        assert twin.__eq__(obj) is NotImplemented

    def test_fields_are_the_twin_fields(self, cls, kwargs):
        assert cls._fields == tuple(TWINS[cls].__dataclass_fields__)
        assert list(kwargs) == list(cls._fields)

    def test_other_values_are_unequal(self, cls, kwargs):
        obj, twin = build(cls, kwargs)
        other, twin_other = build(cls, OTHER[cls])
        assert (obj == other) is (twin == twin_other) is False
        assert (obj != other) is (twin != twin_other) is True
        assert hash(other) == hash(twin_other)

    @pytest.mark.parametrize("name", ["first field", "unknown"])
    def test_refuses_setattr_and_delattr(self, cls, kwargs, name):
        obj, twin = build(cls, kwargs)
        name = obj._fields[0] if name == "first field" else name

        def refusals(target):
            messages = []
            for act in (lambda: setattr(target, name, 1), lambda: delattr(target, name)):
                with pytest.raises(AttributeError) as info:
                    act()
                messages.append(str(info.value))
            return messages

        assert refusals(obj) == refusals(twin)
        assert obj == build(cls, kwargs)[0]

    def test_has_no_instance_dict(self, cls, kwargs):
        obj, _ = build(cls, kwargs)
        assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda x: pickle.loads(pickle.dumps(x)),
            lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        ],
        ids=["copy", "deepcopy", "pickle", "pickle-0"],
    )
    def test_copies_round_trip(self, cls, kwargs, clone):
        obj, twin = build(cls, kwargs)
        rebuilt = clone(obj)
        assert type(rebuilt) is cls
        assert rebuilt == obj
        assert hash(rebuilt) == hash(obj)
        assert repr(rebuilt) == repr(obj) == repr(clone(twin))


@pytest.mark.parametrize("cls, args", INVALID, ids=[cls.__name__ for cls, _ in INVALID])
def test_bad_input_raises_as_the_twin(cls, args):
    refused = outcome(lambda: cls(*args))
    assert isinstance(refused[0], type) and issubclass(refused[0], (ValueError, TypeError))
    assert refused == outcome(lambda: TWINS[cls](*args))


def test_unknown_keyword_raises_as_the_twin():
    kwargs = {"r": 1, "s": 2, "t": 3, "u": 4}
    assert outcome(lambda: LevelDecomposition(**kwargs)) == outcome(
        lambda: TWINS[LevelDecomposition](**kwargs)
    )


small = st.integers(min_value=-2, max_value=40)


@PROPERTY
@given(d=st.lists(small, max_size=5), l=st.lists(small, max_size=5))
def test_tower_construction_matches_the_twin(d, l):
    assert outcome(lambda: IndexTower("t", d, l)) == outcome(
        lambda: TWINS[IndexTower]("t", d, l)
    )


@PROPERTY
@given(
    delta=st.fractions(min_value=-1, max_value=1, max_denominator=12),
    epsilon=st.fractions(min_value=-1, max_value=1, max_denominator=12),
)
def test_params_validation_matches_the_twin(delta, epsilon):
    args = (1, 2, 5, delta, epsilon)
    assert outcome(lambda: PowerSelectionParams(*args)) == outcome(
        lambda: TWINS[PowerSelectionParams](*args)
    )


class TestKeptPass:
    def test_copies_do_not_carry_the_kept_pass(self):
        t = IndexTower("t", (2, 6, 6), (2, 12, 36))
        levels(t)
        assert t._pass == ((1, 1, 2), (2, 6, 3), (1, 2, 6), None)
        for rebuilt in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert not hasattr(rebuilt, "_pass")
            assert rebuilt == t
            assert levels(rebuilt) == levels(t)

    def test_kept_pass_is_outside_the_fields(self):
        fresh = IndexTower("t", (2, 6, 6), (2, 12, 36))
        used = IndexTower("t", (2, 6, 6), (2, 12, 36))
        levels(used)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert "_pass" not in repr(used)
        assert used.__reduce__() == (IndexTower, ("t", (2, 6, 6), (2, 12, 36)))

    def test_fractions_are_normalised_before_comparison(self):
        a = PowerSelectionParams(1, 2, 5, "2/5", 0.2)
        b = PowerSelectionParams(1, 2, 5, Fraction(4, 10), Fraction(1, 5))
        assert a == b and hash(a) == hash(b)
