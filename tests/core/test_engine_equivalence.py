"""Every engine must be bit-identical to every other engine.

The perf rebuilds (session arcs + calendar buckets + meter fast path,
and now the columnar precomputed-schedule engine) are only admissible
because they change *nothing* observable: same trace + config must
yield byte-for-byte equal counters and hourly meter buckets on both
engines and on a heap-only simulator, and the parallel sweep
runner must reproduce the serial rows exactly.  The columnar engine additionally must fall back to ``bucket``
bit-identically (trivially, since they are equal) when numpy is absent
or ``REPRO_ENGINE=python`` closes the gate.
"""

from __future__ import annotations

import sys

import pytest

from repro.cache.factory import LFUSpec, LRUSpec, OracleSpec, spec_from_name
from repro.cache.policies import policy_names
from repro.core.config import SimulationConfig
from repro.core.parallel import run_many
from repro.core.runner import resolve_engine, run_simulation
from repro.errors import ConfigurationError, SimulationError
from repro.core.system import CableVoDSystem, columnar_supported
from repro.trace.records import TraceChunk
from repro.trace.streaming import open_trace_stream
from repro.trace.synthetic import PowerInfoModel, generate_trace
from tests.sim.helpers import HeapSimulator


def _config(strategy=None):
    return SimulationConfig(
        neighborhood_size=60,
        warmup_days=0.5,
        strategy=strategy if strategy is not None else LFUSpec(),
    )


def assert_identical(a, b):
    """Byte-for-byte equality of everything the paper reports."""
    assert a.counters == b.counters
    assert a.events_processed == b.events_processed
    assert a.server_meter.buckets() == b.server_meter.buckets()
    assert a.total_meter.buckets() == b.total_meter.buckets()
    assert set(a.coax_meters) == set(b.coax_meters)
    for key in a.coax_meters:
        assert a.coax_meters[key].buckets() == b.coax_meters[key].buckets()
    for key in a.upstream_meters:
        assert a.upstream_meters[key].buckets() == b.upstream_meters[key].buckets()


def run_on_heap(trace, config):
    """Replay on the bucket engine with every arc step a heap event.

    :class:`~tests.sim.helpers.HeapSimulator` chains ``at()`` one
    segment at a time where the calendar walks arcs, so it is the heap
    reference for the arc walk.
    """
    system = CableVoDSystem(trace, config, engine="bucket")
    system._sim = HeapSimulator()
    return system.run()


class TestHeapBucketEquivalence:
    @pytest.mark.parametrize("strategy", [LFUSpec(), LRUSpec(), OracleSpec()],
                             ids=["lfu", "lru", "oracle"])
    def test_same_seed_same_results(self, tiny_trace, strategy):
        config = _config(strategy)
        heap = run_on_heap(tiny_trace, config)
        bucket = run_simulation(tiny_trace, config, engine="bucket")
        assert_identical(heap, bucket)

    def test_rejects_unknown_engine(self, tiny_trace):
        with pytest.raises(SimulationError):
            CableVoDSystem(tiny_trace, _config(), engine="quantum")

    def test_default_engine_is_auto(self, tiny_trace, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == resolve_engine("auto")
        config = _config()
        default = run_simulation(tiny_trace, config)
        bucket = run_simulation(tiny_trace, config, engine="bucket")
        assert_identical(default, bucket)


class TestColumnarEquivalence:
    """The columnar engine against the arc and heap walks.

    Runs only where the gate is open (numpy importable and
    ``REPRO_ENGINE`` not forcing python) -- on the numpy-absent CI leg
    the fallback tests below carry the suite instead.
    """

    @pytest.mark.parametrize("policy", policy_names())
    def test_three_way_for_every_registered_policy(self, tiny_trace, policy):
        if not columnar_supported():
            pytest.skip("columnar gate closed (no numpy or REPRO_ENGINE=python)")
        config = _config(spec_from_name(policy))
        heap = run_on_heap(tiny_trace, config)
        bucket = run_simulation(tiny_trace, config, engine="bucket")
        columnar = run_simulation(tiny_trace, config, engine="columnar")
        assert_identical(heap, bucket)
        assert_identical(bucket, columnar)

    def test_media_server_counters_match(self, tiny_trace):
        if not columnar_supported():
            pytest.skip("columnar gate closed")
        config = _config()
        systems = {
            engine: CableVoDSystem(tiny_trace, config, engine=engine)
            for engine in ("bucket", "columnar")
        }
        results = {engine: system.run() for engine, system in systems.items()}
        assert_identical(results["bucket"], results["columnar"])
        assert (systems["bucket"].media_server.deliveries
                == systems["columnar"].media_server.deliveries)

    def test_longer_trace_with_hour_spanning_meters(self, small_trace):
        # The bigger fixture crosses many hour boundaries and exercises
        # the split-interval path of the vectorized meter expansion.
        if not columnar_supported():
            pytest.skip("columnar gate closed")
        config = _config()
        bucket = run_simulation(small_trace, config, engine="bucket")
        columnar = run_simulation(small_trace, config, engine="columnar")
        assert_identical(bucket, columnar)

    def test_parallel_columnar_matches_serial(self, tiny_model):
        if not columnar_supported():
            pytest.skip("columnar gate closed")
        configs = [_config(LFUSpec()), _config(LRUSpec())]
        parallel = run_many(tiny_model, configs, workers=2, engine="columnar")
        trace = generate_trace(tiny_model)
        serial = [run_simulation(trace, config, engine="columnar")
                  for config in configs]
        assert len(parallel) == len(serial)
        for par, ser in zip(parallel, serial):
            assert_identical(par, ser)

    def test_empty_trace(self):
        from repro.trace.records import Catalog, Program, Trace

        if not columnar_supported():
            pytest.skip("columnar gate closed")
        trace = Trace([], Catalog([Program(0, 1800.0)]), n_users=4)
        bucket = run_simulation(trace, _config(), engine="bucket")
        columnar = run_simulation(trace, _config(), engine="columnar")
        assert_identical(bucket, columnar)
        assert columnar.events_processed == 0


class TestColumnarFallback:
    """``columnar`` must demote to ``bucket`` whenever the gate closes.

    Demotion is *silent* (no error, no warning) precisely because the
    engines are bit-identical -- these tests pin both the demotion and
    the identity.
    """

    def test_repro_engine_python_forces_bucket(self, tiny_trace, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert not columnar_supported()
        system = CableVoDSystem(tiny_trace, _config(), engine="columnar")
        assert system._engine == "bucket"
        assert_identical(system.run(),
                         run_simulation(tiny_trace, _config(), engine="bucket"))

    def test_numpy_absent_forces_bucket(self, tiny_trace, monkeypatch):
        # sys.modules[name] = None makes ``import numpy`` raise
        # ImportError -- the honest simulation of a numpy-less host.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not columnar_supported()
        system = CableVoDSystem(tiny_trace, _config(), engine="columnar")
        assert system._engine == "bucket"
        result = system.run()
        monkeypatch.undo()
        assert_identical(result,
                         run_simulation(tiny_trace, _config(), engine="bucket"))

    def test_resolution_property_gate_never_changes_results(
            self, tiny_trace, monkeypatch):
        # Property over the whole gate surface: for every gate state,
        # requesting "columnar" produces the bucket-identical result.
        reference = run_simulation(tiny_trace, _config(), engine="bucket")
        for close_gate in (
            lambda: monkeypatch.setenv("REPRO_ENGINE", "python"),
            lambda: monkeypatch.setitem(sys.modules, "numpy", None),
            lambda: None,  # gate open: the real columnar path
        ):
            close_gate()
            assert_identical(
                run_simulation(tiny_trace, _config(), engine="columnar"),
                reference,
            )
            monkeypatch.undo()


class TestEngineResolution:
    def test_default_chain(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == ("columnar" if columnar_supported()
                                    else "bucket")
        assert resolve_engine("bucket") == "bucket"
        assert resolve_engine("python") == "bucket"

    def test_env_variable_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bucket")
        assert resolve_engine() == "bucket"
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert resolve_engine() == ("columnar" if columnar_supported()
                                    else "bucket")
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_engine() == "bucket"

    def test_auto_tracks_the_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        if columnar_supported():
            assert resolve_engine("auto") == "columnar"
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert resolve_engine("auto") == "bucket"

    def test_unknown_names_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ConfigurationError):
            resolve_engine("quantum")
        with pytest.raises(ConfigurationError):
            resolve_engine("heap")


class TestColumnarInternals:
    """Property tests for the numeric kernels the schedule relies on."""

    def test_floor_div_exact_matches_python_floordiv(self):
        if not columnar_supported():
            pytest.skip("needs numpy")
        import math

        import numpy as np

        from repro.sim.columnar import _floor_div_exact

        values = []
        for width in (300.0, 3600.0):
            for k in range(0, 50, 7):
                base = k * width
                for _ in range(3):
                    values.append(base)
                    base = math.nextafter(base, math.inf)
                base = k * width
                for _ in range(3):
                    base = math.nextafter(base, 0.0)
                    values.append(base)
            arr = np.asarray(values, dtype=np.float64)
            expected = [int(v // width) for v in values]
            assert _floor_div_exact(arr, width).tolist() == expected
            values.clear()

    def test_expand_intervals_matches_scalar_meter(self):
        if not columnar_supported():
            pytest.skip("needs numpy")
        import random

        import numpy as np

        from repro.core.meter import HourlyMeter, expand_intervals

        rng = random.Random(99)
        starts, durations = [], []
        for _ in range(500):
            starts.append(rng.uniform(0.0, 50_000.0))
            # Mix of sub-hour and multi-hour spans, plus boundary-huggers.
            durations.append(rng.choice([
                rng.uniform(1.0, 300.0),
                rng.uniform(3_000.0, 9_000.0),
                3600.0,
            ]))
        starts.append(7200.0)          # exactly on an hour boundary
        durations.append(300.0)
        scalar = HourlyMeter()
        for start, duration in zip(starts, durations):
            scalar.add_interval(start, duration)

        _, hours, bits = expand_intervals(starts, durations)
        dense = np.zeros(int(hours.max()) + 1)
        np.add.at(dense, hours, bits)
        vectorized = HourlyMeter()
        nonzero = np.flatnonzero(dense)
        vectorized.add_bits_bulk(nonzero.tolist(), dense[nonzero].tolist())
        assert vectorized.buckets() == scalar.buckets()

    def test_two_runs_on_one_trace_agree(self, tiny_trace):
        if not columnar_supported():
            pytest.skip("needs numpy")
        from bench.checks import result_digest

        first, second = (
            result_digest(CableVoDSystem(tiny_trace, _config(),
                                         engine="columnar").run())
            for _ in range(2)
        )
        assert first == second

    def test_largest_window_is_a_fraction_of_the_run(self):
        if not columnar_supported():
            pytest.skip("needs numpy")
        from repro.sim.columnar import build_schedule

        trace = generate_trace(
            PowerInfoModel(n_users=300, n_programs=60, days=8.0, seed=11))
        last = [p.num_segments - 1 for p in trace.catalog]
        sizes = [window.n_events for window in build_schedule(
            [TraceChunk(0, 0, 0, *trace.columns())], last)]
        assert max(sizes) <= sum(sizes) / 4

    def test_no_window_outlives_the_run(self, tiny_trace, monkeypatch):
        if not columnar_supported():
            pytest.skip("needs numpy")
        import weakref

        from repro.sim import columnar

        refs = []
        build = columnar.build_schedule

        def watched(*args):
            for window in build(*args):
                refs.extend(weakref.ref(getattr(window, name)) for name in (
                    "user", "program", "end", "time", "watch", "segment",
                    "delivered"))
                yield window

        monkeypatch.setattr(columnar, "build_schedule", watched)
        system = CableVoDSystem(tiny_trace, _config(), engine="columnar")
        result = system.run()
        assert result.events_processed > 0
        assert len(refs) > 7
        assert [ref for ref in refs if ref() is not None] == []

    def test_chunk_drain_frees_each_chunk(self, tiny_model, monkeypatch):
        """A columnar chunk drain holds no chunk once its starts are read.

        The starts ride in the schedule's own arrays, so with a source
        that keeps no chunk itself, no chunk is alive at any window.
        """
        if not columnar_supported():
            pytest.skip("needs numpy")
        import gc
        import weakref

        from repro.sim import columnar

        stream = open_trace_stream(tiny_model, chunk_hours=2)
        refs = []

        def track(chunk):
            refs.append(weakref.ref(chunk))
            return chunk

        held = []
        build = columnar.build_schedule

        def watched(*args):
            for window in build(*args):
                gc.collect()
                held.append(sum(ref() is not None for ref in refs))
                yield window

        monkeypatch.setattr(columnar, "build_schedule", watched)
        system = CableVoDSystem(None, _config(), engine="columnar",
                                catalog=stream.catalog,
                                n_users=stream.n_users)
        result = system.run(map(track, stream.chunks()))
        assert result.counters.sessions > 0
        assert len(refs) >= 3 and len(held) >= 3
        assert held == [0] * len(held)
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestWorkerDefaults:
    def test_repro_workers_env_overrides(self, monkeypatch):
        from repro.core.parallel import (
            _cpu_workers,
            default_workers,
            resolve_workers,
        )

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit request wins
        # An explicit 0 is a *request* for per-CPU parallelism; the
        # ambient environment must not override it.
        assert resolve_workers(0) == _cpu_workers()

    def test_env_zero_means_one_per_cpu(self, monkeypatch):
        import os

        from repro.core.parallel import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "0")
        process_cpus = getattr(os, "process_cpu_count", None)
        expected = (process_cpus() if process_cpus else None) or os.cpu_count() or 1
        assert default_workers() == expected

    def test_default_is_cpu_derived(self, monkeypatch):
        import os

        from repro.core.parallel import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        process_cpus = getattr(os, "process_cpu_count", None)
        expected = (process_cpus() if process_cpus else None) or os.cpu_count() or 1
        assert default_workers() == expected

    def test_invalid_env_rejected(self, monkeypatch):
        from repro.core.parallel import default_workers
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ConfigurationError):
            default_workers()


class TestSerialSweepTraceCaching:
    def test_serial_sweeps_generate_the_trace_once(self, monkeypatch):
        # Regression: run_many's serial path used to call generate_trace
        # directly, bypassing the process-wide memo -- on single-CPU
        # hosts every sweep regenerated a trace the scenario runner had
        # already built.  Two serial sweeps over one model must generate
        # exactly once.
        from repro.trace import synthetic

        model = PowerInfoModel(n_users=120, n_programs=30, days=1.5,
                               seed=987_123)
        calls = []
        real_generate = synthetic.generate_trace

        def counting(requested, backend=None):
            calls.append(requested)
            return real_generate(requested, backend=backend)

        monkeypatch.setattr(synthetic, "generate_trace", counting)
        first = run_many(model, [_config(LFUSpec()), _config(LRUSpec())],
                         workers=1)
        second = run_many(model, [_config(LFUSpec())], workers=1)
        assert len(first) == 2 and len(second) == 1
        assert calls == [model]
        assert_identical(first[0], second[0])


class TestParallelEquivalence:
    def test_two_workers_match_serial_rows(self, tiny_model):
        configs = [_config(LFUSpec()), _config(LRUSpec())]
        parallel = run_many(tiny_model, configs, workers=2)
        trace = generate_trace(tiny_model)
        serial = [run_simulation(trace, config) for config in configs]
        assert len(parallel) == len(serial)
        for par, ser in zip(parallel, serial):
            assert_identical(par, ser)

    def test_single_worker_runs_inline(self, tiny_model):
        model = PowerInfoModel(n_users=200, n_programs=40, days=2.0, seed=3)
        configs = [_config()]
        results = run_many(model, configs, workers=1)
        assert len(results) == 1
        assert results[0].counters.sessions > 0
