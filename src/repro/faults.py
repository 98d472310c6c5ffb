"""Reusable fault injection at named sites (ISSUE 6).

A :class:`FaultInjector` maps *site names* to rules that inject
latency, raise errors, run a callback, or stall on an event; production
code calls ``INJECTOR.fire("site")`` (usually via the guards in
:mod:`repro.deadline`, or behind an ``INJECTOR.armed`` check) at
interesting points, which is a no-op unless a test armed a rule.  It is
the one fault seam: the durability layer's kill points fire through it
too, so crash-recovery tests die at byte-precise moments by arming a
rule that raises.

Known sites:

* ``executor:scan``   — a plan's table and index reads (once per page of
  rows or chunk of row ids read)
* ``executor:dml``    — executor insert/update/delete loops (per row)
* ``endpoint:stream`` — between chunks of a streamed HTTP response
* ``wal:pre-append``, ``wal:mid-append``, ``wal:pre-sync``,
  ``checkpoint:pre-rename``, ``checkpoint:post-rename`` — the durability
  kill points (:mod:`repro.rdb.durability`): the same rule table drives
  WAL/checkpoint chaos and crash recovery.
* ``repl:ship``    — log shipper, before sending each WAL frame
* ``repl:connect`` — replica supervisor, before each connect attempt
* ``repl:apply``   — replica applier, before applying a snapshot/frame
* ``repl:lease``   — primary-loss detector, at each lease check
* ``repl:promote`` — replica promotion, before any state changes
* ``obs:export``   — metrics exposition, before rendering ``/metrics``

Rules are consumed-per-fire with an optional ``times`` budget, and the
``armed`` flag keeps the disarmed fast path to one attribute read.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from .errors import FaultError

__all__ = ["FaultInjector", "FaultRule", "INJECTOR"]


class FaultRule:
    """One injection rule: what happens when its site fires."""

    __slots__ = ("site", "latency", "error", "stall", "call", "times", "fired")

    def __init__(
        self,
        site: str,
        latency: float = 0.0,
        error: Optional[BaseException] = None,
        stall: Optional[threading.Event] = None,
        call: Optional[Callable[[str], None]] = None,
        times: Optional[int] = None,
    ) -> None:
        self.site = site
        self.latency = latency
        self.error = error
        self.stall = stall
        self.call = call
        self.times = times
        self.fired = 0


#: Upper bound on a stall rule's wait: a chaos test that forgets to set
#: its release event must not hang the suite forever.
_STALL_CAP_SECONDS = 30.0


class FaultInjector:
    """Injects latency, errors, or stalls at named sites.

    Thread-safe: rules are installed/cleared under a lock; the fire path
    reads a snapshot.  The module-level :data:`INJECTOR` is the instance
    production code consults; tests install rules against it and must
    :meth:`clear` in teardown (the chaos suite uses a fixture for this).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: Dict[str, FaultRule] = {}
        #: Fast-path flag: False means fire() is a no-op and callers may
        #: skip it entirely (one attribute read on hot loops).
        self.armed = False

    def inject(
        self,
        site: str,
        *,
        latency: float = 0.0,
        error: Optional[BaseException] = None,
        stall: Optional[threading.Event] = None,
        call: Optional[Callable[[str], None]] = None,
        times: Optional[int] = None,
        fail: bool = False,
    ) -> FaultRule:
        """Arm ``site``.  ``latency`` sleeps, ``error`` raises (``fail=True``
        raises a default :class:`FaultError`), ``stall`` blocks until the
        event is set, ``call`` runs an arbitrary callback, ``times`` caps
        how often the rule fires before going inert."""
        if fail and error is None:
            error = FaultError(f"injected fault at {site}")
        rule = FaultRule(
            site, latency=latency, error=error, stall=stall, call=call, times=times
        )
        with self._lock:
            self._rules[site] = rule
            self.armed = True
        return rule

    def clear(self, site: Optional[str] = None) -> None:
        """Remove one site's rule, or all rules when ``site`` is None."""
        with self._lock:
            if site is None:
                self._rules.clear()
            else:
                self._rules.pop(site, None)
            self.armed = bool(self._rules)

    def fired(self, site: str) -> int:
        """How many times ``site``'s current rule has fired."""
        with self._lock:
            rule = self._rules.get(site)
            return rule.fired if rule is not None else 0

    def fire(self, site: str) -> None:
        """Trigger ``site``: no-op unless a rule is armed for it."""
        if not self.armed:
            return
        with self._lock:
            rule = self._rules.get(site)
            if rule is None:
                return
            if rule.times is not None and rule.fired >= rule.times:
                return
            rule.fired += 1
        # Act outside the lock: latency/stall must not serialize other sites.
        if rule.call is not None:
            rule.call(site)
        if rule.latency > 0.0:
            time.sleep(rule.latency)
        if rule.stall is not None:
            rule.stall.wait(timeout=_STALL_CAP_SECONDS)
        if rule.error is not None:
            raise rule.error


#: The process-wide injector consulted by production code.
INJECTOR = FaultInjector()
