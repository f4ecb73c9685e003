"""The heartbeat-round messages keep frozen-dataclass value semantics.

``ExistingMessage`` and ``GossipDigest`` are plain ``__slots__`` classes
(cheaper to build than frozen dataclasses), so their equality, hashing,
``repr`` and immutability are pinned here against a frozen dataclass of
the same fields.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from typing import Any

import pytest

from repro.vehicles.messages import ExistingMessage, GossipDigest, SuspectMessage


@dataclass(frozen=True)
class ExistingReference:
    sender: Any
    pair_key: Any
    round_id: Any


@dataclass(frozen=True)
class DigestReference:
    sender: Any
    round_id: Any
    heard: Any
    silent: Any


CASES = [
    (ExistingMessage, ExistingReference, ((1, 2), (3, 4), 5)),
    (GossipDigest, DigestReference, ((0, 1), 7, (((0, 0), 6),), (((2, 2), (0, 1), 3),))),
]


@pytest.mark.parametrize("cls, reference, values", CASES, ids=["existing", "digest"])
class TestFrozenSlots:
    def test_fields_and_no_instance_dict(self, cls, reference, values):
        message = cls(*values)
        assert tuple(getattr(message, name) for name in cls.__slots__) == values
        assert not hasattr(message, "__dict__")
        keywords = dict(zip(cls.__slots__, values))
        assert cls(**keywords) == message

    def test_value_equality(self, cls, reference, values):
        message = cls(*values)
        assert message == cls(*values)
        assert not message != cls(*values)
        assert message != cls(*values[:-1], "other")
        # Equal fields of another type are a different message.
        assert message != reference(*values)
        assert message != values
        assert message != SuspectMessage((1, 2), (3, 4), 5)

    def test_hash_is_the_dataclass_hash(self, cls, reference, values):
        assert hash(cls(*values)) == hash(reference(*values))
        assert len({cls(*values), cls(*values)}) == 1

    def test_repr_is_the_dataclass_repr(self, cls, reference, values):
        expected = repr(reference(*values)).replace(reference.__name__, cls.__name__, 1)
        assert repr(cls(*values)) == expected

    def test_fields_cannot_be_assigned_or_deleted(self, cls, reference, values):
        message = cls(*values)
        for name in cls.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(message, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(message, name)
        with pytest.raises(AttributeError):
            message.extra = 1
        assert tuple(getattr(message, name) for name in cls.__slots__) == values

    def test_copies_and_pickles(self, cls, reference, values):
        message = cls(*values)
        assert pickle.loads(pickle.dumps(message)) == message
        assert copy.copy(message) == message == copy.deepcopy(message)
