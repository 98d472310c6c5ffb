"""Per-request deadlines and cooperative cancellation (ISSUE 6).

A deadline is carried in the request scope (:mod:`repro.observability.
tracing`) rather than threaded through every call signature: the
serving layer holds it in each request's scope, and the loops deep in
the executor call :func:`cancellation_point` once per unit of work: a
plan's reads once per page of rows or chunk of row ids, DML once per
row it changes.
When the deadline passes, the check raises a typed
:class:`~repro.errors.QueryTimeout` that unwinds through the normal
exception paths — DML rolls back via the existing statement savepoint /
autocommit machinery, reads simply stop pulling rows.

A check costs two attribute reads when no deadline is active and no
fault is armed, paid per unit rather than per row read.
Fault-injection sites (:mod:`repro.faults`) piggyback on the same hook
so chaos tests can stall or fail the executor mid-scan.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Union

from .errors import QueryTimeout
from .faults import INJECTOR
from .observability.tracing import RequestScope, current

__all__ = [
    "Deadline",
    "cancellation_point",
    "current_deadline",
    "deadline_scope",
]


class Deadline:
    """A monotonic-clock expiry shared by one request's worth of work."""

    __slots__ = ("expires_at", "budget")

    def __init__(self, seconds: float) -> None:
        if not (seconds > 0.0):
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.budget = float(seconds)
        self.expires_at = time.monotonic() + self.budget

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`QueryTimeout` when the deadline has passed."""
        if time.monotonic() >= self.expires_at:
            raise QueryTimeout(
                f"operation exceeded its {self.budget:.3f}s deadline",
                timeout_seconds=self.budget,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline budget={self.budget:.3f}s remaining={self.remaining():.3f}s>"


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current thread, or None."""
    return current.scope.deadline


@contextmanager
def deadline_scope(limit: Union[None, float, Deadline]):
    """Install a deadline for the duration of the ``with`` block.

    ``limit`` may be a number of seconds, an existing :class:`Deadline`,
    or None (no-op scope).  Nested scopes keep whichever deadline
    expires first, so an outer request budget can never be loosened by
    an inner call.
    """
    if limit is not None and not isinstance(limit, Deadline):
        limit = Deadline(limit)
    with RequestScope(deadline=limit) as scope:
        yield scope.deadline


def cancellation_point(site: str = "executor:scan") -> None:
    """Fire the fault injector for ``site`` and check the active
    deadline: what a loop calls once per unit of work."""
    if INJECTOR.armed:
        INJECTOR.fire(site)
    deadline = current.scope.deadline
    if deadline is not None:
        deadline.check()

