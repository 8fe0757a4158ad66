"""Generator backends: gating, determinism, distribution equivalence.

The numpy backend deliberately draws different random streams than the
reference python sampler, so the contract is three-fold:

* each backend is bit-reproducible for a given model;
* backend selection is explicit and env-gated, never silent surprise;
* the two backends agree on every *distribution* the model specifies --
  arrival counts per hour, per-program popularity mass, duration
  moments, the full-view atom -- within sampling tolerance.
"""

import dataclasses
import math
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.trace import distributions as dist
from repro.trace import synthetic
from repro.trace.synthetic import (
    PowerInfoModel,
    _SessionLengthSampler,
    _user_activity_cumulative,
    cached_trace,
    generate_trace,
    numpy_available,
    resolve_trace_backend,
    set_trace_backend,
)
from repro.sim.random_streams import RandomStreams

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not importable")

#: Big enough for stable statistics, small enough for tier-1 wall time.
MODEL = PowerInfoModel(n_users=600, n_programs=80, days=4.0, seed=77)


@pytest.fixture(scope="module")
def python_trace():
    return generate_trace(MODEL, backend="python")


@pytest.fixture(scope="module")
def numpy_trace():
    if not numpy_available():
        pytest.skip("numpy not importable")
    return generate_trace(MODEL, backend="numpy")


class TestBackendGate:
    def test_resolve_explicit_names(self):
        assert resolve_trace_backend("python") == "python"
        if numpy_available():
            assert resolve_trace_backend("numpy") == "numpy"

    def test_auto_prefers_numpy_when_available(self):
        expected = "numpy" if numpy_available() else "python"
        assert resolve_trace_backend("auto") == expected

    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_backend_override", None)
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "python")
        assert resolve_trace_backend() == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_trace_backend("fortran")

    def test_set_trace_backend_rejects_typos_eagerly(self):
        with pytest.raises(ConfigurationError):
            set_trace_backend("numpyy")

    def test_set_trace_backend_mirrors_env_for_workers(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_backend_override", None)
        monkeypatch.delenv("REPRO_TRACE_BACKEND", raising=False)
        try:
            set_trace_backend("python")
            import os

            assert os.environ["REPRO_TRACE_BACKEND"] == "python"
            assert resolve_trace_backend() == "python"
        finally:
            set_trace_backend(None)
        import os

        assert "REPRO_TRACE_BACKEND" not in os.environ

    def test_cached_trace_keys_on_resolved_backend(self, monkeypatch):
        # Flipping the backend mid-process must never serve the other
        # backend's records from cache.
        model = PowerInfoModel(n_users=60, n_programs=12, days=1.0, seed=5)
        monkeypatch.setattr(synthetic, "_backend_override", None)
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "python")
        via_python = cached_trace(model)
        assert list(via_python) == list(generate_trace(model, backend="python"))
        if numpy_available():
            monkeypatch.setenv("REPRO_TRACE_BACKEND", "numpy")
            via_numpy = cached_trace(model)
            assert list(via_numpy) == list(
                generate_trace(model, backend="numpy")
            )


class TestBitReproducibility:
    def test_python_backend_reproducible(self, python_trace):
        again = generate_trace(MODEL, backend="python")
        assert list(again) == list(python_trace)

    @needs_numpy
    def test_numpy_backend_reproducible(self, numpy_trace):
        again = generate_trace(MODEL, backend="numpy")
        assert list(again) == list(numpy_trace)

    @needs_numpy
    def test_backends_share_the_catalog_exactly(self, python_trace,
                                                numpy_trace):
        # The catalog and calibration run in shared code: identical.
        py = [(p.program_id, p.length_seconds, p.introduced_at)
              for p in python_trace.catalog]
        np_ = [(p.program_id, p.length_seconds, p.introduced_at)
               for p in numpy_trace.catalog]
        assert py == np_

    @needs_numpy
    def test_numpy_trace_is_chronological(self, numpy_trace):
        assert list(numpy_trace) == sorted(numpy_trace)


@needs_numpy
class TestDistributionEquivalence:
    def test_session_volume_matches(self, python_trace, numpy_trace):
        # Same calibrated Poisson intensity: totals agree within a few
        # standard deviations of the count itself.
        n_py, n_np = len(python_trace), len(numpy_trace)
        assert abs(n_py - n_np) < 6 * math.sqrt(n_py)

    def test_sessions_per_hour_of_day_match(self, python_trace, numpy_trace):
        def hourly(trace):
            counts = [0] * 24
            for record in trace:
                counts[int(record.start_time // 3600.0) % 24] += 1
            return counts

        py, np_ = hourly(python_trace), hourly(numpy_trace)
        for hour in range(24):
            # Poisson counts: compare with a ~5 sigma band per bucket.
            sigma = math.sqrt(max(py[hour], 1.0))
            assert abs(py[hour] - np_[hour]) < 6 * sigma + 10, f"hour {hour}"

    def test_per_program_mass_matches(self, python_trace, numpy_trace):
        py = python_trace.sessions_per_program()
        np_ = numpy_trace.sessions_per_program()
        # Head programs carry enough mass for a tight relative check.
        head = sorted(py, key=py.get, reverse=True)[:10]
        for program_id in head:
            share_py = py[program_id] / len(python_trace)
            share_np = np_.get(program_id, 0) / len(numpy_trace)
            assert share_np == pytest.approx(share_py, rel=0.25, abs=0.004)
        # And the aggregate skew agrees: top-decile share within 3 pts.
        def top_decile(counts, total):
            ranked = sorted(counts.values(), reverse=True)
            return sum(ranked[: max(1, len(ranked) // 10)]) / total

        assert top_decile(np_, len(numpy_trace)) == pytest.approx(
            top_decile(py, len(python_trace)), abs=0.03
        )

    def test_duration_moments_match(self, python_trace, numpy_trace):
        d_py = [r.duration_seconds for r in python_trace]
        d_np = [r.duration_seconds for r in numpy_trace]
        assert statistics.mean(d_np) == pytest.approx(
            statistics.mean(d_py), rel=0.05
        )
        assert statistics.pstdev(d_np) == pytest.approx(
            statistics.pstdev(d_py), rel=0.05
        )
        assert statistics.median(d_np) == pytest.approx(
            statistics.median(d_py), rel=0.10
        )

    def test_full_view_atom_matches(self, python_trace, numpy_trace):
        def completion_rate(trace):
            done = sum(
                1 for r in trace
                if r.duration_seconds
                >= trace.catalog[r.program_id].length_seconds - 1.0
            )
            return done / len(trace)

        assert completion_rate(numpy_trace) == pytest.approx(
            completion_rate(python_trace), abs=0.02
        )

    def test_user_activity_skew_matches(self, python_trace, numpy_trace):
        def top_user_share(trace):
            counts = {}
            for r in trace:
                counts[r.user_id] = counts.get(r.user_id, 0) + 1
            ranked = sorted(counts.values(), reverse=True)
            return sum(ranked[: len(ranked) // 10]) / len(trace)

        assert top_user_share(numpy_trace) == pytest.approx(
            top_user_share(python_trace), abs=0.04
        )


class TestSamplerEdgeCases:
    """The cumulative-sampling and length-cache satellite bugfixes."""

    def test_cumulative_tail_pinned_to_one(self):
        # Weights chosen so naive accumulation lands below 1.0; a
        # uniform draw in the missing sliver would bisect past the end
        # and crash the catalog lookup.
        weights = [0.1] * 3 + [1e-17] * 4 + [0.7]
        cum = dist.cumulative(weights)
        assert cum[-1] == 1.0
        from bisect import bisect_left

        almost_one = math.nextafter(1.0, 0.0)
        assert bisect_left(cum, almost_one) < len(weights)

    def test_uniform_user_activity_tail_pinned_to_one(self):
        # The sigma=0 branch builds its cumulative without
        # dist.cumulative; step * n can fall short of 1.0 in floats.
        for n_users in (49, 98, 107, 414):
            model = PowerInfoModel(n_users=n_users, n_programs=10,
                                   days=1.0, user_activity_sigma=0.0)
            cum = _user_activity_cumulative(model, RandomStreams(1))
            assert len(cum) == n_users
            assert cum[-1] == 1.0

    def test_lognormal_user_activity_tail_pinned_to_one(self):
        model = PowerInfoModel(n_users=57, n_programs=10, days=1.0)
        cum = _user_activity_cumulative(model, RandomStreams(1))
        assert cum[-1] == 1.0

    def test_session_length_cache_keys_on_lower_and_length(self):
        # Two models sharing a program length but differing in
        # min_session_seconds produce different truncation windows; the
        # cache key must see the difference (regression for the
        # length-only key).
        length = 40.0 * 60.0
        program = None
        from repro.trace.records import Program

        program = Program(program_id=0, length_seconds=length)
        loose = _SessionLengthSampler(
            PowerInfoModel(n_programs=1, min_session_seconds=30.0)
        )
        tight = _SessionLengthSampler(
            PowerInfoModel(n_programs=1, min_session_seconds=600.0)
        )
        rng = RandomStreams(9).get("lengths")
        for _ in range(50):
            loose.sample(program, rng)
            tight.sample(program, rng)
        (loose_key,) = loose._by_window
        (tight_key,) = tight._by_window
        assert loose_key == (30.0, length)
        assert tight_key == (600.0, length)
        assert loose._by_window[loose_key].lower == 30.0
        assert tight._by_window[tight_key].lower == 600.0

    def test_min_session_floor_respected_across_models(self):
        model = PowerInfoModel(n_users=80, n_programs=12, days=1.0,
                               seed=3, min_session_seconds=120.0,
                               full_view_probability=0.0)
        trace = generate_trace(model, backend="python")
        assert min(r.duration_seconds for r in trace) >= 120.0 - 1e-9

    @needs_numpy
    def test_zero_mass_window_rejected_on_both_backends(self):
        # A model whose lognormal carries no mass inside the truncation
        # window must error identically on both backends -- the numpy
        # path used to clamp silently into a degenerate distribution.
        # sessions_per_user_per_day bypasses calibration (which shares
        # its own zero-mass guard), so this exercises the *samplers*.
        model = PowerInfoModel(
            n_users=40, n_programs=8, days=0.5, seed=4,
            short_session_median_seconds=1e9,
            full_view_probability=0.0,
            target_peak_gbps=None,
            sessions_per_user_per_day=5.0,
        )
        with pytest.raises(ConfigurationError):
            generate_trace(model, backend="python")
        with pytest.raises(ConfigurationError):
            generate_trace(model, backend="numpy")


@needs_numpy
def test_numpy_generation_leaves_numpy_ma_unimported():
    """Generating and streaming a trace never imports ``numpy.ma``.

    ``np.unique`` imports it on recent numpy (``_unique1d`` asks
    ``np.ma.is_masked``), tens of milliseconds of every generation; a
    fresh interpreter shows whether anything pulls it in.
    """
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.dirname(synthetic.__file__)))
    script = (
        "import sys\n"
        "from repro.trace.streaming import open_trace_stream\n"
        "from repro.trace.synthetic import PowerInfoModel, generate_trace\n"
        "model = PowerInfoModel(n_users=300, n_programs=60, days=2.0,"
        " seed=3)\n"
        "assert len(generate_trace(model, 'numpy')) > 0\n"
        "assert sum(map(len, open_trace_stream(model, 'numpy').chunks()))\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
