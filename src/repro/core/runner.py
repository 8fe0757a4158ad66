"""Public simulation entry point and engine selection.

Engine resolution: an explicit argument wins, then the
``REPRO_ENGINE`` environment variable, then ``"auto"``.  Two
convenience spellings resolve to concrete engines: ``"auto"`` picks
``"columnar"`` when numpy is importable and falls back to ``"bucket"``
otherwise, and ``"python"`` (the same value the env var uses to force
scalar execution) is an alias for ``"bucket"``.  Both engines are
bit-identical, so resolution only ever affects speed.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.system import CableVoDSystem, ENGINE_MODES, columnar_supported
from repro.errors import ConfigurationError
from repro.trace.records import Trace

#: Every name :func:`resolve_engine` accepts (concrete modes plus the
#: two aliases).
ENGINE_CHOICES = ENGINE_MODES + ("auto", "python")


def resolve_engine(name: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete ``ENGINE_MODES`` entry.

    ``None`` falls through to ``REPRO_ENGINE``, then to ``"auto"``; any
    explicit name is validated.  ``"columnar"`` resolves to
    ``"bucket"`` when the gate is closed (numpy missing or
    ``REPRO_ENGINE=python``) -- a silent demotion, not an error, because
    the engines are bit-identical.
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE") or "auto"
    if name == "auto":
        return "columnar" if columnar_supported() else "bucket"
    if name == "python":
        return "bucket"
    if name not in ENGINE_MODES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {ENGINE_CHOICES}"
        )
    if name == "columnar" and not columnar_supported():
        return "bucket"
    return name


def run_simulation(trace: Trace, config: SimulationConfig,
                   engine: Optional[str] = None) -> SimulationResult:
    """Replay ``trace`` through a freshly built system under ``config``.

    This is the function every experiment and example calls.  It is
    deterministic: the same trace and config always produce identical
    results (placement, strategies, and the event loop contain no
    unseeded randomness).  ``engine`` selects the event-engine path --
    ``"columnar"`` (vectorized schedule), ``"bucket"`` (tick-bucketed
    session arcs), or the ``"auto"``/``"python"`` aliases -- with
    ``None`` deferring to :func:`resolve_engine`'s env/auto chain.  Both
    engines produce bit-identical results.

    Examples
    --------
    >>> from repro.trace import PowerInfoModel, generate_trace
    >>> from repro.core import SimulationConfig, run_simulation
    >>> trace = generate_trace(PowerInfoModel(n_users=200, n_programs=50,
    ...                                       days=2.0, seed=7))
    >>> result = run_simulation(trace, SimulationConfig(
    ...     neighborhood_size=100, warmup_days=0.5))
    >>> result.counters.sessions == len(trace)
    True
    """
    return CableVoDSystem(trace, config, engine=resolve_engine(engine)).run()
