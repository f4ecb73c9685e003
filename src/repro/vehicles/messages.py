"""Messages exchanged by the online vehicle protocol.

Phase I (Algorithm 2) uses ``query`` and ``reply`` messages; Phase II uses a
single ``move`` message relayed along the child-pointer path.  The
monitoring extension of Section 3.2.5 adds periodic ``existing`` heartbeats
and an activation notice broadcast by a replacement vehicle so watchers can
reset their timers and the pair registry stays consistent.

Every protocol message is tagged with the identity of the computation it
belongs to: ``(initiator identity, round number)``.  The thesis notes that
tagging computations with a sequence number lets vehicles distinguish
computations started at different times by the same initiator -- the round
number plays that role.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Hashable, Tuple

from repro.grid.lattice import Point

__all__ = [
    "ComputationTag",
    "QueryMessage",
    "ReplyMessage",
    "MoveMessage",
    "ExistingMessage",
    "ActivationNotice",
    "EscalateQuery",
    "EscalateReply",
    "GossipDigest",
    "SuspectMessage",
    "AttestMessage",
]

#: ``(initiator identity, round number)`` -- uniquely names one diffusing
#: computation.
ComputationTag = Tuple[Hashable, int]


class _FrozenSlots:
    """Frozen-dataclass value semantics on a plain ``__slots__`` class.

    The base of the messages every heartbeat round builds by the thousand:
    equality, hashing and ``repr`` over the fields in ``__slots__`` order,
    as a dataclass has them, and a field cannot be assigned or deleted.  A
    subclass's ``__init__`` writes through the slot descriptors' ``__set__``,
    about twice as fast as a frozen dataclass's ``object.__setattr__``.
    """

    __slots__ = ()

    def _values(self) -> Tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, *value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Pickling's default slot-state restore would assign the fields.
        return (type(self), self._values())


@dataclass(frozen=True)
class QueryMessage:
    """Phase I query ``(init, p)``: *are you, or do you know, an idle vehicle?*"""

    tag: ComputationTag
    sender: Hashable
    #: The position the eventual replacement must move to.
    destination: Point
    #: The black vertex identifying the pair to take over.
    pair_key: Point


@dataclass(frozen=True)
class ReplyMessage:
    """Phase I reply ``(flag, p)``: ``flag`` is true when an idle vehicle was found."""

    tag: ComputationTag
    sender: Hashable
    flag: bool


@dataclass(frozen=True)
class MoveMessage:
    """Phase II order relayed along the child path to the located idle vehicle.

    ``escalated`` marks an order dispatched by a cross-cube escalated round
    (so the endpoint can attribute the success to the escalation counters;
    intra-cube orders leave it ``False``).
    """

    tag: ComputationTag
    sender: Hashable
    destination: Point
    pair_key: Point
    escalated: bool = False


class ExistingMessage(_FrozenSlots):
    """Periodic heartbeat from an active vehicle (Section 3.2.5)."""

    __slots__ = ("sender", "pair_key", "round_id")

    sender: Hashable
    #: The pair the sender is currently responsible for.
    pair_key: Point
    #: Monotone heartbeat round counter supplied by the fleet.
    round_id: int

    def __init__(self, sender, pair_key, round_id) -> None:
        _set_existing_sender(self, sender)
        _set_existing_pair_key(self, pair_key)
        _set_existing_round_id(self, round_id)


_set_existing_sender = ExistingMessage.sender.__set__
_set_existing_pair_key = ExistingMessage.pair_key.__set__
_set_existing_round_id = ExistingMessage.round_id.__set__


@dataclass(frozen=True)
class ActivationNotice:
    """Broadcast by a replacement vehicle when it takes over a pair."""

    sender: Hashable
    pair_key: Point
    position: Point


@dataclass(frozen=True)
class EscalateQuery:
    """Cross-cube boundary query of an escalated replacement search.

    When a Phase I flood exhausts its own cube without locating a free
    vehicle, the initiator widens the diffusing computation through the
    cube hierarchy: at escalation level ``k`` it queries every vehicle of
    the base cubes newly covered by its level-``k`` ancestor cube (the
    hierarchy's deterministic escalation ring).  The query crosses cube
    boundaries -- the one thing an intra-cube ``query`` may never do --
    and is answered directly to the initiator, so the escalated round is a
    star-shaped diffusing computation whose deficit counter lives at the
    initiator: the termination-detection tree stays a tree across levels.
    """

    tag: ComputationTag
    #: The initiator; recipients reply straight back to it.
    sender: Hashable
    #: The position the eventual replacement must move to.
    destination: Point
    #: The black vertex identifying the pair to take over.
    pair_key: Point
    #: Escalation level the query belongs to (1 = parent cube).
    level: int


@dataclass(frozen=True)
class EscalateReply:
    """Answer to an :class:`EscalateQuery`.

    ``flag`` says whether the sender can take the pair over; ``spare``
    distinguishes an idle volunteer (``False`` -- it migrates, the
    classical Phase II takeover) from an *active* vehicle volunteering
    surplus battery (``True`` -- it adopts the far pair in addition to its
    own, the cross-cube move that makes ``omega_c < 1`` fleets, where no
    vehicle is ever idle, recoverable at all).  ``level`` echoes the
    query's escalation level so a reply delayed past the level's
    starvation timeout cannot drain a *later* ring's deficit counter, and
    ``position`` reports where the volunteer currently stands (the walk is
    paid from there, not from its home vertex) so the initiator ranks
    candidates by the energy they would actually spend.
    """

    tag: ComputationTag
    sender: Hashable
    flag: bool
    spare: bool = False
    level: int = 0
    position: Point = ()


class GossipDigest(_FrozenSlots):
    """Epidemic digest sent to ``fanout`` deterministic peers of the
    sender's own cube per round, as a message of its own next to the
    heartbeat an active sender broadcasts (carrying it inside that
    heartbeat is the open plan of ROADMAP item 8).

    ``heard`` carries the sender's freshest ``(pair_key, round)`` entries
    (capped, most recent first) so liveness information spreads through a
    cube of ``k`` vehicles in O(log k) rounds even when direct heartbeats
    are lost.  ``silent`` carries silence reports ``(pair_key, reporter,
    report_round)``: independent observations that a pair has been quiet
    past the miss threshold.  Receivers max-merge ``heard`` and union
    ``silent``, so a single report replicates without ever being
    double-counted -- the reporter identity, not the carrying digest, is
    what suspicion tallies.
    """

    __slots__ = ("sender", "round_id", "heard", "silent")

    sender: Hashable
    round_id: int
    heard: Tuple[Tuple[Point, int], ...]
    silent: Tuple[Tuple[Point, Point, int], ...]

    def __init__(self, sender, round_id, heard, silent) -> None:
        _set_digest_sender(self, sender)
        _set_digest_round_id(self, round_id)
        _set_digest_heard(self, heard)
        _set_digest_silent(self, silent)


_set_digest_sender = GossipDigest.sender.__set__
_set_digest_round_id = GossipDigest.round_id.__set__
_set_digest_heard = GossipDigest.heard.__set__
_set_digest_silent = GossipDigest.silent.__set__


@dataclass(frozen=True)
class SuspectMessage:
    """A watcher's request for co-signatures before taking over a pair.

    Sent cube-wide once ``suspicion_threshold`` independent silence
    reports have accumulated.  The takeover itself waits for ``quorum``
    granted :class:`AttestMessage` answers, so one lying or partitioned
    watcher can no longer trigger a replacement on its own.
    """

    sender: Hashable
    pair_key: Point
    round_id: int


@dataclass(frozen=True)
class AttestMessage:
    """A co-signature answering a :class:`SuspectMessage`.

    Honest vehicles grant only when their *own* view of the pair is stale
    past the miss threshold; a refusal is silence (no message), so a
    Byzantine attester can withhold but never forge another's signature.
    """

    sender: Hashable
    pair_key: Point
    round_id: int
    granted: bool = True
