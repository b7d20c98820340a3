"""Value semantics of the package's record classes.

Each class is built twice from the same arguments. The two builds must be
equal and hash equal, refuse assignment and deletion, survive copy and
pickle, and never equal an instance of another class holding the same
field values. StateTable refuses assignment too, but its fields are
lists, so it has no hash.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from idstates import (
    DissimilarityValue,
    ExpectationReport,
    FrequencyVector,
    IdentityState,
    StateMatrix,
    StateProbability,
    comparison_report,
    enumerate_states,
)
from idstates.serialize import StateTable

P = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
Q = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))

# (class, field names, a fresh instance on each call)
VALUES = [
    (DissimilarityValue, ("numerator", "denominator"), lambda: DissimilarityValue(5, 9)),
    (StateMatrix, ("flattened",), lambda: StateMatrix((2, 1, 0, 0, 0, 0, 0, 1, 0))),
    (IdentityState,
     ("canonical_matrix", "representative", "dissimilarity", "n_distinct",
      "is_symmetric", "stabilizer_size", "row_equiv", "row_equal"),
     lambda: IdentityState(StateMatrix((2, 0, 0, 1, 0, 1, 0, 0, 0)))),
    (FrequencyVector, ("entries", "exact"), lambda: FrequencyVector(P, True)),
    (StateProbability, ("value",), lambda: StateProbability(Fraction(1, 3))),
    (ExpectationReport,
     ("e_pq", "e_pp", "e_qq", "avg_within", "within_exceeds_between"),
     lambda: comparison_report(P, Q)),
]
TABLE_FIELDS = ("draw_size", "n_objects", "states", "probabilities")


def _table():
    return StateTable(enumerate_states(2, 3))


def _twin(value, names):
    """An instance of a subclass of value's class holding the same fields."""
    twin = object.__new__(type("Twin", (type(value),), {}))
    for name in names:
        object.__setattr__(twin, name, getattr(value, name))
    return twin


@pytest.mark.parametrize("cls, names, build", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_frozen_value_semantics(cls, names, build):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{cls.__name__}(")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and hash(copied) == hash(a)
        assert [getattr(copied, n) for n in names] == [getattr(a, n) for n in names]
    twin = _twin(a, names)
    assert a != twin and twin != a


def test_state_table_is_an_unhashable_value():
    a, b = _table(), _table()
    assert a == b and a is not b
    assert repr(a).startswith("StateTable(")
    assert (a.probabilities, a.exact) == (None, True)
    with pytest.raises(TypeError):
        hash(a)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert a != _twin(a, TABLE_FIELDS)
    for name in TABLE_FIELDS:
        with pytest.raises(AttributeError):
            setattr(a, name, [1 / 6] * len(a.states))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    floats = StateTable(a.states, [1 / 6] * len(a.states))
    assert floats != a and not floats.exact
    assert (floats.draw_size, floats.n_objects) == (2, 3)
    for states in ([], a.states + enumerate_states(2, 4)[:1]):
        with pytest.raises(ValueError, match="states of one"):
            StateTable(states)
    with pytest.raises(ValueError, match="one probability per state: 1 for 6 states"):
        StateTable(a.states, [0.5])
