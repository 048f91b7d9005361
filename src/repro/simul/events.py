"""Event objects for the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Event:
    """A scheduled callback in simulated time.

    Attributes:
        time: absolute simulated time at which the event fires.
        fn: the callback to invoke.
        args: positional arguments passed to ``fn``.
        cancelled: set via :meth:`cancel`; cancelled events are skipped by
            the engine without invoking ``fn``.
    """

    time: float
    fn: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine drops it instead of firing it."""
        self.cancelled = True
