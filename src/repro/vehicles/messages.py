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

from dataclasses import dataclass
from typing import Hashable, Tuple

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


@dataclass(frozen=True)
class ExistingMessage:
    """Periodic heartbeat from an active vehicle (Section 3.2.5)."""

    sender: Hashable
    #: The pair the sender is currently responsible for.
    pair_key: Point
    #: Monotone heartbeat round counter supplied by the fleet.
    round_id: int


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


@dataclass(frozen=True)
class GossipDigest:
    """Epidemic digest piggybacked to ``fanout`` deterministic peers of the
    sender's own cube per round.

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

    sender: Hashable
    round_id: int
    heard: Tuple[Tuple[Point, int], ...]
    silent: Tuple[Tuple[Point, Point, int], ...]


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
