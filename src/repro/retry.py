"""Shared retry core: exponential backoff, full jitter, deadlines, breakers.

Extracted from :class:`~repro.serving.client.ServiceClient` so every HTTP
caller in the stack — the serving client and the
:class:`~repro.engine.remote.RemoteArtifactStore` — shares one
implementation of the retry arithmetic instead of re-deriving it:

* **full-jitter backoff**: the pause before retry *n* is drawn uniformly
  from ``[0, min(cap, base * 2**(n-1)))``, so a thundering herd of callers
  decorrelates instead of synchronising on the exponential schedule;
* **``Retry-After`` as a lower bound**: a server hint never *shortens* the
  jittered pause, it only stretches it — the server knows when capacity
  returns, the jitter knows how to spread the load;
* **per-call deadlines**: one logical call (every attempt and every pause)
  fits inside a budget.  Per-attempt timeouts shrink to the remaining
  budget, and a pause that would sleep past the cutoff is refused outright
  so the caller surfaces the last real error instead of timing out inside
  a guaranteed-doomed sleep.

The split of responsibilities: :class:`RetryPolicy` holds the immutable
knobs, :meth:`RetryPolicy.start` opens a :class:`RetryState` for one
logical call, and the caller's loop asks the state for a clamped
per-attempt timeout (:meth:`RetryState.begin_attempt`) and for the next
pause (:meth:`RetryState.next_pause`).  The state never sleeps and never
raises — ``None`` answers mean "budget spent", and the caller decides what
error to surface (each call site has richer context than the helper).

:class:`CircuitBreaker` is the other half of failing well: the one
closed → open → half-open state machine behind both the registry's
per-graph build breaker and the remote artifact store's per-remote breaker.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "RetryPolicy", "RetryState", "parse_retry_after"]


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` header as non-negative seconds, if parseable.

    Only the decimal-seconds form is understood (the stack's servers emit
    ``"0.050"``-style hints); HTTP-date spellings parse as ``None`` and the
    caller falls back to pure jitter.
    """
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)


class RetryPolicy:
    """Immutable retry knobs shared by every call through one client.

    Parameters
    ----------
    max_retries:
        How many *re*-tries follow the first attempt (``0`` disables
        retrying entirely).
    backoff_seconds / backoff_max_seconds:
        Exponential backoff base and cap for the full-jitter draw.
    deadline_seconds:
        Default budget for one logical call including every retry and
        pause; ``None`` means attempts alone bound the call.  Individual
        calls may override via :meth:`start`.
    """

    __slots__ = ("max_retries", "backoff", "backoff_max", "deadline", "rng")

    def __init__(
        self,
        *,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        backoff_max_seconds: float = 2.0,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_seconds < 0 or backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        self.max_retries = max_retries
        self.backoff = backoff_seconds
        self.backoff_max = backoff_max_seconds
        self.deadline = deadline_seconds
        self.rng = random.Random()

    def start(self, *, deadline_seconds: Optional[float] = None) -> "RetryState":
        """Open the retry state for one logical call.

        ``deadline_seconds`` overrides the policy-wide default for this call
        only (``None`` keeps the default).
        """
        deadline = deadline_seconds if deadline_seconds is not None else self.deadline
        return RetryState(self, deadline)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<RetryPolicy retries={self.max_retries} "
            f"backoff={self.backoff}/{self.backoff_max} deadline={self.deadline}>"
        )


class RetryState:
    """Attempt/deadline bookkeeping for one logical call.

    ``attempts`` counts attempts actually begun.  The state is not
    thread-safe; one logical call belongs to one thread.
    """

    __slots__ = ("_policy", "deadline", "_cutoff", "attempts")

    def __init__(self, policy: RetryPolicy, deadline: Optional[float]) -> None:
        self._policy = policy
        self.deadline = deadline
        self._cutoff = time.monotonic() + deadline if deadline is not None else None
        self.attempts = 0

    def remaining(self) -> Optional[float]:
        """Seconds left in the deadline budget (``None`` = unbounded)."""
        if self._cutoff is None:
            return None
        return self._cutoff - time.monotonic()

    def begin_attempt(self, timeout: float) -> Optional[float]:
        """The per-attempt timeout for the next attempt, clamped to the budget.

        Returns ``None`` — without counting an attempt — when the deadline
        is already exhausted; the caller surfaces its deadline error with
        :attr:`attempts` still holding the number of attempts that ran.
        """
        if self._cutoff is not None:
            left = self._cutoff - time.monotonic()
            if left <= 0:
                return None
            timeout = min(timeout, left)
        self.attempts += 1
        return timeout

    def next_pause(self, *, retry_after: Optional[float] = None) -> Optional[float]:
        """Seconds to sleep before the next attempt, or ``None`` to give up.

        ``None`` means either the retry budget is spent or the pause (full
        jitter, raised to any ``retry_after`` server hint) cannot fit the
        remaining deadline — in both cases the caller should surface the
        last attempt's error rather than sleep.  The caller does the
        sleeping, so it can narrate or instrument the pause first.
        """
        if self.attempts > self._policy.max_retries:
            return None
        pause = self._policy.rng.uniform(
            0.0,
            min(
                self._policy.backoff_max,
                self._policy.backoff * (2 ** (self.attempts - 1)),
            ),
        )
        if retry_after is not None:
            pause = max(pause, retry_after)
        if self._cutoff is not None and time.monotonic() + pause >= self._cutoff:
            # The pause alone would blow the budget: give up now instead of
            # sleeping into a guaranteed timeout.
            return None
        return pause

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<RetryState attempts={self.attempts} deadline={self.deadline}>"


class CircuitBreaker:
    """A consecutive-failure circuit breaker: closed → open → half-open.

    ``threshold`` consecutive failures open the circuit for
    ``reset_seconds``; while it is open, :meth:`open_for` is positive and
    :meth:`admit` turns callers away — a lock and a clock read.  Once the
    window has passed the circuit is *half-open*: the next caller
    :meth:`admit` lets through becomes the one probe.  Its success closes
    the circuit and clears the streak; its failure re-opens the circuit for
    another full window, whatever the consecutive count says — the
    protected thing just proved it is still broken.  ``threshold=0``
    disables the breaker: every call is admitted and nothing is recorded.
    Every admitted call must end in :meth:`record_success` or
    :meth:`record_failure`, whatever way it leaves: while the probe's
    verdict is outstanding, every other caller is turned away.

    ``on_transition(state)`` runs outside the lock with each state entered
    (``"open"``, ``"half-open"``, ``"closed"``), so each owner feeds its own
    metrics and logs.  ``failures`` and ``last_error`` describe the current
    streak.
    """

    __slots__ = (
        "threshold",
        "reset_seconds",
        "failures",
        "last_error",
        "_opened_at",
        "_probing",
        "_on_transition",
        "_lock",
    )

    def __init__(
        self,
        threshold: int,
        reset_seconds: float,
        on_transition: Callable[[str], None],
    ) -> None:
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.failures = 0
        self.last_error = ""
        self._opened_at: Optional[float] = None
        self._probing = False
        self._on_transition = on_transition
        self._lock = threading.Lock()

    def _remaining(self) -> float:
        if self._opened_at is None:
            return 0.0
        return self._opened_at + self.reset_seconds - time.monotonic()

    def open_for(self) -> float:
        """Seconds the circuit stays open; ``<= 0`` once callers may pass."""
        with self._lock:
            return self._remaining()

    def state(self) -> tuple[str, float]:
        """The state and the seconds it stays open (``0.0`` unless open).

        The state is ``"closed"``, ``"open"`` or ``"half-open"`` (the
        window has passed; the next admitted caller probes).
        """
        with self._lock:
            if self._opened_at is None:
                return "closed", 0.0
            remaining = self._remaining()
        return ("open", remaining) if remaining > 0 else ("half-open", 0.0)

    def admit(self) -> bool:
        """Whether one call may go ahead now; marks the half-open probe.

        Closed: yes.  Open inside the window, or half-open with a probe
        already in flight: no.  Half-open otherwise: yes, and this caller
        is the probe.
        """
        if not self.threshold:
            return True
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing or self._remaining() > 0:
                return False
            self._probing = True
        self._on_transition("half-open")
        return True

    def record_failure(self, exc: BaseException) -> None:
        """Count one failed call; open (or re-open) the circuit when due."""
        if not self.threshold:
            return
        with self._lock:
            self.failures += 1
            self.last_error = str(exc)
            opened = self._probing or self.failures >= self.threshold
            if opened:
                self._opened_at = time.monotonic()
                self._probing = False
        if opened:
            self._on_transition("open")

    def record_success(self) -> None:
        """Close the circuit and clear the failure streak."""
        if not self.threshold:
            return
        with self._lock:
            closed = self._opened_at is not None or self._probing
            self.failures = 0
            self.last_error = ""
            self._opened_at = None
            self._probing = False
        if closed:
            self._on_transition("closed")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<CircuitBreaker {self.state()[0]} failures={self.failures}>"
