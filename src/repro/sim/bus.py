"""Typed notifier bus: the kernel-notifier-chain analogue.

Every cross-layer interaction in the machine flows through one
:class:`NotifierBus` instead of ad-hoc callbacks: the allocator announces
watermark pressure, the fault path asks who will handle a hint or
write-protect fault, and the access engine streams executed chunks to
samplers.

Subscribers register a handler for an *event type* (one of the
dataclasses below), like ``notifier_chain_register``; each chain runs
in subscription order. Two delivery modes mirror the kernel's notifier
semantics:

* :meth:`NotifierBus.publish` -- notify-all. Every handler runs.
* :meth:`NotifierBus.dispatch` -- consume. Handlers run in order until
  one returns a non-``None`` value; that value is the dispatch result.
  Fault handling uses this: the first policy handler that consumes the
  fault returns its cycle cost.

Events carry their payload as typed fields; a few (``AllocFail``) are
deliberately mutable so several subscribers can accumulate into them,
the way notifier callbacks mutate the ``void *data`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Type, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from ..mem.frame import Frame
    from ..mmu.address_space import AddressSpace
    from ..mmu.faults import Fault
    from .cpu import Cpu

__all__ = [
    "Subscription",
    "NotifierBus",
    "LowWatermark",
    "AllocFail",
    "FrameReplaced",
    "DemandPage",
    "HintFault",
    "WpFault",
    "ChunkExecuted",
]


# ----------------------------------------------------------------------
# Event taxonomy
# ----------------------------------------------------------------------
@dataclass
class LowWatermark:
    """A node dipped below its low watermark (wakes kswapd)."""

    tier: int


@dataclass
class AllocFail:
    """Allocation failed on every tier; subscribers reclaim into ``freed``.

    Nomad frees shadow pages here, targeting 10x the request
    (Section 3.2). Mutable: several reclaimers may each add pages.
    """

    tier: int
    nr: int
    freed: int = 0


@dataclass
class FrameReplaced:
    """A migration replaced ``old`` with ``new`` (rmap/index rekeying)."""

    old: "Frame"
    new: "Frame"


@dataclass
class DemandPage:
    """A first-touch allocation mapped ``frame`` for ``fault``."""

    fault: "Fault"
    frame: "Frame"


@dataclass
class HintFault:
    """A NUMA-hint (prot_none) fault. Dispatched: the consuming handler
    returns the cycles it spent in the faulting task's context."""

    fault: "Fault"
    cpu: "Cpu"


@dataclass
class WpFault:
    """A write hit a read-only PTE (Nomad's shadow fault). Dispatched:
    the consuming handler returns its cycle cost."""

    fault: "Fault"
    cpu: "Cpu"


@dataclass
class ChunkExecuted:
    """The access engine executed one vectorized segment.

    ``completion_ts`` holds per-access completion times; Memtis's
    PEBS-style sampler subscribes here.
    """

    space: "AddressSpace"
    vpns: "np.ndarray"
    writes: "np.ndarray"
    completion_ts: "np.ndarray"


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Subscription:
    """A registered handler; pass back to :meth:`NotifierBus.unsubscribe`."""

    event_type: Type[Any]
    handler: Callable[[Any], Any]


class NotifierBus:
    """Publish/subscribe over typed events, in subscription order."""

    def __init__(self) -> None:
        self._chains: Dict[type, List[Subscription]] = {}

    # ------------------------------------------------------------------
    def subscribe(
        self, event_type: Type[Any], handler: Callable[[Any], Any]
    ) -> Subscription:
        """Append ``handler`` to ``event_type``'s chain.

        Returns a :class:`Subscription` for later unsubscription.
        """
        if not isinstance(event_type, type):
            raise TypeError(f"subscribe() needs an event class, got {event_type!r}")
        sub = Subscription(event_type, handler)
        self._chains.setdefault(event_type, []).append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription (idempotent)."""
        chain = self._chains.get(sub.event_type, [])
        if sub in chain:
            chain.remove(sub)

    def has_subscribers(self, event_type: Type[Any]) -> bool:
        return bool(self._chains.get(event_type))

    # ------------------------------------------------------------------
    def publish(self, event: Any) -> None:
        """Notify-all delivery to the chain as it stood at the call."""
        for sub in tuple(self._chains.get(type(event), ())):
            sub.handler(event)

    def dispatch(self, event: Any) -> Any:
        """Consume delivery: the first handler returning a value wins.

        Handlers returning ``None`` decline and the chain continues; any
        other return value consumes the event and becomes the dispatch
        result. Returns ``None`` when no handler consumed the event.
        """
        for sub in tuple(self._chains.get(type(event), ())):
            result = sub.handler(event)
            if result is not None:
                return result
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chains = {t.__name__: len(c) for t, c in self._chains.items() if c}
        return f"<NotifierBus {chains}>"
