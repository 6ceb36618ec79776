"""Per-phase profiling hooks with a strict no-op fast path.

The hot paths (``SynthesisMechanism.propose_batch``, the engine's merge)
call :func:`phase` unconditionally.  Unless
a :class:`PhaseProfile` has been activated for the *current thread* via
:func:`profiled`, the context manager yields immediately without reading
the clock — so worker processes (which never activate a profile) and
telemetry-off deployments pay a single thread-local attribute lookup.

Activation is thread-local on purpose: the service executes each fold
synchronously on one dispatcher thread, so the phases measured between
``profiled(...)`` enter and exit belong to exactly that fold.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.clock import Clock

_active = threading.local()


class PhaseProfile:
    """Accumulates ``phase -> (calls, seconds)`` for one activation."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or Clock()
        self.phases: Dict[str, list] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": entry[0], "seconds": entry[1]}
            for name, entry in sorted(self.phases.items())
        }


def current_profile() -> Optional[PhaseProfile]:
    return getattr(_active, "profile", None)


@contextmanager
def profiled(profile: PhaseProfile) -> Iterator[PhaseProfile]:
    """Activate ``profile`` for the current thread for the duration."""
    previous = getattr(_active, "profile", None)
    _active.profile = profile
    try:
        yield profile
    finally:
        _active.profile = previous


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a named phase if a profile is active; otherwise do nothing."""
    profile = getattr(_active, "profile", None)
    if profile is None:
        yield
        return
    begin = profile.clock.monotonic()
    try:
        yield
    finally:
        profile.add(name, profile.clock.monotonic() - begin)
