"""The process abstraction for message-passing protocols.

A :class:`Process` has an identity, an unbounded input buffer (the thesis
assumes unbounded buffers for ease of exposition), and an ``on_message``
handler invoked by the network when a buffered message is consumed.
Processes send messages through the network they are registered with; they
never share memory.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distsim.events import ScheduledEvent
    from repro.distsim.network import Network

__all__ = ["Process"]


class Process:
    """Base class for protocol participants.

    Subclasses override :meth:`on_message` (required) and optionally
    :meth:`on_start`, which the network calls once when the simulation is
    kicked off.  The network delivers every message with one call,
    ``process.on_message(sender, message)``, looked up on the instance at
    delivery time (see :meth:`~repro.distsim.network.Network._deliver`);
    there is no intermediate per-process hook.
    """

    #: Whether the network appends each delivery's ``(sender, message)``
    #: to :attr:`message_log` before calling :meth:`on_message`.  On by
    #: default (tests and debugging rely on the log).  Protocol processes
    #: that receive unbounded traffic turn it off for the whole class
    #: (:class:`~repro.vehicles.vehicle.VehicleProcess` does), so memory
    #: stays constant over a long message stream.  The flag only gates
    #: the *recording* -- dispatch to :meth:`on_message` is unchanged.
    log_messages: bool = True

    def __init__(self, identity: Hashable) -> None:
        self.identity = identity
        self._network: Optional["Network"] = None
        #: Messages received, in order -- kept for debugging and assertions.
        self.message_log: List[Any] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach(self, network: "Network") -> None:
        """Called by :class:`~repro.distsim.network.Network` on registration."""
        self._network = network

    @property
    def network(self) -> "Network":
        """The network this process is registered with."""
        if self._network is None:
            raise RuntimeError(f"process {self.identity!r} is not attached to a network")
        return self._network

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.network.simulator.now

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #

    def send(self, destination: Hashable, message: Any) -> None:
        """Send ``message`` to the process with identity ``destination``."""
        self.network.send(self.identity, destination, message)

    def send_many(self, destinations: Any, message: Any) -> None:
        """Broadcast one message to many destinations.

        Semantically identical to calling :meth:`send` per destination (in
        order); the network batches the whole broadcast through one
        transport call on channels that allow it (see
        :meth:`~repro.distsim.network.Network.send_many`).
        """
        self.network.send_many(self.identity, destinations, message)

    # ------------------------------------------------------------------ #
    # timers
    # ------------------------------------------------------------------ #

    def set_timer(
        self, delay: float, callback: Optional[Callable[[], None]] = None
    ) -> "ScheduledEvent":
        """Schedule a local timer ``delay`` time units from now.

        Fires ``callback`` (default: :meth:`on_timer`) on the network's
        simulator.  A timer of a process that has crashed by the time it
        fires is silently discarded -- crashed processes take no local
        steps.  The returned event can be cancelled.
        """
        fire = callback if callback is not None else self.on_timer

        def _fire() -> None:
            if self.network.failure_plan.is_crashed(self.identity):
                return
            fire()

        return self.network.simulator.schedule(delay, _fire, kind="timer")

    # ------------------------------------------------------------------ #
    # overridables
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        """Hook invoked once when the network starts all processes."""

    def on_timer(self) -> None:
        """Default target of :meth:`set_timer`; subclasses may override."""

    def on_message(self, sender: Hashable, message: Any) -> None:
        """Handle one received message.  Subclasses must override."""
        raise NotImplementedError
