"""Shared execution vocabulary: task outcomes and graceful shutdown.

The paper's campaign probes 60 ASes from 50 vantage points; at that
scale the execution plane fails in ways the data plane never does -- a
worker wedges inside a stage, a box reboots and SIGKILLs the process,
an operator Ctrl-Cs a half-done portfolio.  The classic portfolio and
scale campaigns both run their tasks on
:class:`~repro.campaign.shardexec.LeaseExecutor`; this module holds
the types every caller shares with it:

- :class:`TaskStatus` / :class:`TaskOutcome` -- how one task ended
  (after any re-dispatch) and what the supervisor saw of it;
- :class:`Quarantine` -- a poison task whose circuit breaker opened;
- :class:`ExecutionResult` -- everything one ``run`` observed;
- :class:`GracefulShutdown` -- SIGINT/SIGTERM as a drain request.
"""

from __future__ import annotations

import enum
import logging
import signal
from dataclasses import dataclass, field
from typing import Any

logger = logging.getLogger(__name__)


class TaskStatus(enum.Enum):
    """How one supervised task ended."""

    OK = "ok"
    #: the task function raised (deterministic failure; never re-dispatched)
    ERROR = "error"
    #: the worker exceeded its deadline (or went silent) and was killed
    TIMEOUT = "timeout"
    #: the worker process died without delivering a result
    CRASH = "crash"


@dataclass(slots=True)
class TaskOutcome:
    """Final state of one task after supervision (and any re-dispatch)."""

    key: Any
    status: TaskStatus
    #: the task function's return value (``OK`` only)
    value: Any = None
    #: error description (``ERROR``/``TIMEOUT``/``CRASH``)
    error: str | None = None
    #: why a ``TIMEOUT``/``CRASH`` task was given up on: "timeout"
    #: (deadline), "hung" (lease expired) or "crash" (worker died)
    reason: str | None = None
    #: dispatch attempts consumed (> 1 means the task was re-dispatched)
    attempts: int = 1
    #: last heartbeat note received from the worker, if any
    last_stage: str | None = None
    #: supervisor-observed wall-clock seconds per heartbeat stage, for
    #: workers that never returned (``TIMEOUT``/``CRASH``/``ERROR``) --
    #: the post-mortem of where a killed worker spent its life
    stage_seconds: dict[str, float] | None = None


@dataclass(slots=True)
class Quarantine:
    """A poison task: failed its re-dispatch budget, circuit breaker open."""

    key: Any
    #: "timeout", "hung" or "crash"
    reason: str
    attempts: int
    detail: str


@dataclass(slots=True)
class ExecutionResult:
    """Everything one ``LeaseExecutor.run`` observed."""

    #: final outcome per task key (tasks never dispatched are absent)
    outcomes: dict[Any, TaskOutcome] = field(default_factory=dict)
    #: circuit-broken tasks (their final outcome is also in ``outcomes``)
    quarantined: dict[Any, Quarantine] = field(default_factory=dict)
    #: True when a shutdown request cut the batch short
    interrupted: bool = False


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain request.

    Inside the block the first signal sets :attr:`requested` instead of
    raising, so the supervisor can stop dispatching, drain in-flight
    workers and flush durable state.  A second SIGINT restores the
    default handler's behaviour (KeyboardInterrupt) for operators who
    really mean it.  Previous handlers are restored on exit; when not
    running in the main thread (where ``signal`` refuses handlers) the
    manager degrades to a plain manual flag.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: dict[int, Any] = {}
        self._strikes = 0

    def __call__(self) -> bool:
        return self.requested

    def request(self) -> None:
        """Request shutdown programmatically (tests, embedding)."""
        self.requested = True

    def _handle(self, signum: int, frame) -> None:
        self.requested = True
        self._strikes += 1
        logger.warning(
            "received %s: draining in-flight work (repeat to force)",
            signal.Signals(signum).name,
        )
        if self._strikes >= 2:
            raise KeyboardInterrupt

    def __enter__(self) -> "GracefulShutdown":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
