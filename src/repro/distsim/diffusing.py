"""A reusable Dijkstra--Scholten diffusing computation (Section 3.1).

Dijkstra and Scholten's scheme lets a single *initiator* flood a query
through an arbitrary connected network, have every awakened node perform
some local test, and detect -- at the initiator -- when the whole
computation has terminated.  The thesis uses the scheme to locate an idle
vehicle inside a cube and to record a path of ``child`` pointers from the
initiator to the located vehicle (Phase I of the online strategy); Phase II
then relays a move order along that path.

This module provides the scheme in a protocol-agnostic form:

* every :class:`DiffusingNode` knows its neighbors and a local *target
  predicate*;
* the initiator floods ``query`` messages; each first-time receiver records
  its parent, answers ``True`` immediately if it satisfies the predicate,
  and otherwise forwards the query to its own neighbors;
* replies are aggregated with deficit counters exactly as in the
  Dijkstra--Scholten algorithm; the first positive reply a node sees fixes
  its ``child`` pointer;
* when the initiator's deficit reaches zero the computation has terminated
  and the child-pointer chain (if any) is the discovered path.

The vehicle protocol of Chapter 3 embeds the same logic with extra
vehicle-state bookkeeping; this standalone version is exercised directly by
``tests/distsim/test_diffusing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.distsim.engine import Simulator
from repro.distsim.network import Network
from repro.distsim.process import Process

__all__ = [
    "QueryMessage",
    "ReplyMessage",
    "DiffusingNode",
    "DiffusingComputation",
    "HierarchicalSearch",
    "HierarchicalSearchResult",
]


@dataclass(frozen=True)
class QueryMessage:
    """The ``query`` message of Phase I: ``(init, sender)`` plus a round tag."""

    init: Hashable
    sender: Hashable
    round_id: int


@dataclass(frozen=True)
class ReplyMessage:
    """The ``reply`` message of Phase I: ``(flag, sender)`` plus the round tag."""

    flag: bool
    sender: Hashable
    init: Hashable
    round_id: int


class DiffusingNode(Process):
    """One participant of a diffusing computation.

    Parameters
    ----------
    identity:
        Unique node identity.
    neighbors:
        Identities of the node's neighbors (the underlying graph must be
        connected for the search to be exhaustive).
    is_target:
        Zero-argument callable evaluated when a query first reaches the
        node; returning ``True`` makes the node answer positively without
        forwarding the query further (an "idle vehicle" in the thesis).
    """

    def __init__(
        self,
        identity: Hashable,
        neighbors: Sequence[Hashable],
        is_target: Callable[[], bool],
    ) -> None:
        super().__init__(identity)
        self.neighbors: List[Hashable] = list(neighbors)
        self.is_target = is_target
        # Dijkstra--Scholten bookkeeping, reset per computation round.
        self.current_init: Optional[Hashable] = None
        self.current_round: Optional[int] = None
        self.parent: Optional[Hashable] = None
        self.child: Optional[Hashable] = None
        self.deficit = 0
        self.searching = False
        # Filled on the initiator when its computation terminates.
        self.finished = False
        self.found = False
        self.queries_seen = 0

    # ------------------------------------------------------------------ #
    # initiation
    # ------------------------------------------------------------------ #

    def initiate(self, round_id: int) -> None:
        """Start a new diffusing computation rooted at this node."""
        self.current_init = self.identity
        self.current_round = round_id
        self.parent = None
        self.child = None
        self.finished = False
        self.found = False
        self.searching = True
        self.deficit = len(self.neighbors)
        if not self.neighbors:
            # Degenerate single-node network: terminate immediately.
            self._terminate()
            return
        for neighbor in self.neighbors:
            self.send(neighbor, QueryMessage(self.identity, self.identity, round_id))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def on_message(self, sender: Hashable, message: Any) -> None:
        if isinstance(message, QueryMessage):
            self._on_query(sender, message)
        elif isinstance(message, ReplyMessage):
            self._on_reply(sender, message)
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _on_query(self, sender: Hashable, message: QueryMessage) -> None:
        self.queries_seen += 1
        new_computation = (
            not self.searching
            and (message.init, message.round_id)
            != (self.current_init, self.current_round)
        )
        if not new_computation:
            # Already engaged (or already finished this round): immediate no.
            self.send(
                sender,
                ReplyMessage(False, self.identity, message.init, message.round_id),
            )
            return
        self.current_init = message.init
        self.current_round = message.round_id
        self.parent = sender
        self.child = None
        if self.is_target():
            self.send(
                sender,
                ReplyMessage(True, self.identity, message.init, message.round_id),
            )
            return
        self.searching = True
        self.deficit = len(self.neighbors)
        if self.deficit == 0:
            self.searching = False
            self.send(
                sender,
                ReplyMessage(False, self.identity, message.init, message.round_id),
            )
            return
        for neighbor in self.neighbors:
            self.send(neighbor, QueryMessage(message.init, self.identity, message.round_id))

    def _on_reply(self, sender: Hashable, message: ReplyMessage) -> None:
        if (message.init, message.round_id) != (self.current_init, self.current_round):
            # A stale reply from a previous round; ignore.
            return
        if not self.searching:
            return
        self.deficit -= 1
        first_positive = message.flag and self.child is None
        if first_positive:
            self.child = message.sender
            if self.parent is not None:
                self.send(
                    self.parent,
                    ReplyMessage(True, self.identity, message.init, message.round_id),
                )
        if self.deficit == 0:
            self.searching = False
            if self.parent is None:
                self._terminate()
            elif self.child is None:
                self.send(
                    self.parent,
                    ReplyMessage(False, self.identity, message.init, message.round_id),
                )

    def _terminate(self) -> None:
        self.finished = True
        self.found = self.child is not None or self.is_target()


class DiffusingComputation:
    """Convenience harness: build a network of diffusing nodes and run searches."""

    def __init__(
        self,
        topology: Mapping[Hashable, Iterable[Hashable]],
        targets: Callable[[Hashable], bool],
        *,
        delay: float = 1.0,
        rng=None,
    ) -> None:
        self.simulator = Simulator()
        self.network = Network(self.simulator, delay=delay, rng=rng)
        self.nodes: Dict[Hashable, DiffusingNode] = {}
        self._round = 0
        for identity, neighbors in topology.items():
            node = DiffusingNode(
                identity,
                list(neighbors),
                is_target=(lambda ident=identity: targets(ident)),
            )
            self.nodes[identity] = node
            self.network.register(node)
        # Sanity: the topology must be symmetric for the thesis's model
        # ("communication links are bidirectional").
        for identity, node in self.nodes.items():
            for neighbor in node.neighbors:
                if identity not in self.nodes[neighbor].neighbors:
                    raise ValueError(
                        f"asymmetric link {identity!r} -> {neighbor!r}; "
                        "links must be bidirectional"
                    )

    def search(self, root: Hashable) -> "SearchResult":
        """Run one diffusing computation rooted at ``root`` until termination."""
        self._round += 1
        sent_before = self.network.messages_sent
        node = self.nodes[root]
        node.initiate(self._round)
        self.network.run_until_quiescent()
        if not node.finished:
            raise RuntimeError("diffusing computation did not terminate")
        path = self.trace_path(root)
        return SearchResult(
            found=node.found,
            path=path,
            target=path[-1] if node.found and path else None,
            messages=self.network.messages_sent - sent_before,
        )

    def trace_path(self, root: Hashable) -> List[Hashable]:
        """Follow child pointers from the root to the discovered target."""
        path = [root]
        current = self.nodes[root]
        visited = {root}
        while current.child is not None:
            nxt = current.child
            if nxt in visited:
                raise RuntimeError("child pointers form a cycle")
            path.append(nxt)
            visited.add(nxt)
            current = self.nodes[nxt]
        return path


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one diffusing search."""

    found: bool
    path: List[Hashable]
    target: Optional[Hashable]
    messages: int


@dataclass(frozen=True)
class HierarchicalSearchResult:
    """Outcome of a group-local search plus its escalation ladder."""

    found: bool
    target: Optional[Hashable]
    #: 0 = found inside the root's own group; k = found in the k-th
    #: escalation ring; ``None`` = exhausted every ring without a hit.
    level: Optional[int]
    messages: int


class HierarchicalSearch:
    """The protocol-agnostic reference for cross-group escalation.

    The vehicle protocol's cross-cube replacement search composes two
    mechanisms: a Dijkstra--Scholten flood *inside* a group, and a
    star-shaped widening *across* groups along a deterministic escalation
    order.  This class provides exactly that composition over arbitrary
    node groups, serving the same role for escalation that
    :class:`DiffusingComputation` serves for Phase I: a small, directly
    testable model the vehicle implementation is checked against.

    Parameters
    ----------
    groups:
        Mapping of group id -> ``{node: neighbors}`` intra-group topology
        (each group must satisfy :class:`DiffusingComputation`'s
        symmetric-link requirement).
    targets:
        Predicate evaluated per node when a query reaches it.
    escalation_order:
        Mapping of group id -> the sequence of *rings*, each ring a list
        of group ids queried together at that escalation level (the
        analogue of :meth:`repro.grid.cubes.CubeHierarchy.escalation_order`).
    """

    def __init__(
        self,
        groups: Mapping[Hashable, Mapping[Hashable, Iterable[Hashable]]],
        targets: Callable[[Hashable], bool],
        escalation_order: Mapping[Hashable, Sequence[Sequence[Hashable]]],
    ) -> None:
        self.targets = targets
        self.computations: Dict[Hashable, DiffusingComputation] = {
            group: DiffusingComputation(topology, targets)
            for group, topology in groups.items()
        }
        self.escalation_order = {
            group: [list(ring) for ring in rings]
            for group, rings in escalation_order.items()
        }
        self._group_of: Dict[Hashable, Hashable] = {}
        for group, computation in self.computations.items():
            for identity in computation.nodes:
                if identity in self._group_of:
                    raise ValueError(f"node {identity!r} appears in two groups")
                self._group_of[identity] = group

    def _ring_hit(self, ring: Sequence[Hashable]) -> Optional[Hashable]:
        """First satisfied node of a ring, in deterministic enumeration
        order (groups as given, nodes in registration order) -- the
        analogue of the initiator choosing among its boundary replies."""
        for group in ring:
            for identity in self.computations[group].nodes:
                if self.targets(identity):
                    return identity
        return None

    def search(self, root: Hashable) -> HierarchicalSearchResult:
        """Search the root's group, then escalate ring by ring."""
        group = self._group_of[root]
        local = self.computations[group].search(root)
        if local.found:
            return HierarchicalSearchResult(
                found=True, target=local.target, level=0, messages=local.messages
            )
        messages = local.messages
        for level, ring in enumerate(self.escalation_order.get(group, []), start=1):
            # One boundary query + one reply per ring node: the star-shaped
            # escalated round of the vehicle protocol.
            messages += 2 * sum(len(self.computations[g].nodes) for g in ring)
            hit = self._ring_hit(ring)
            if hit is not None:
                return HierarchicalSearchResult(
                    found=True, target=hit, level=level, messages=messages
                )
        return HierarchicalSearchResult(
            found=False, target=None, level=None, messages=messages
        )
