"""Sweep trace hand-off: attach vs. regenerate, proven equivalent.

The acceptance contract for the shared-trace path: multi-worker sweeps
must produce rows bit-identical to the serial and the regenerate paths,
and workers must genuinely *attach* -- the count-the-generations tests
pin that no worker calls the generator when a share is published.
"""

import multiprocessing as mp
import os

import pytest

from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationTask, iter_task_results
from repro.trace import synthetic, workload as workload_mod
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace

MODEL = PowerInfoModel(n_users=220, n_programs=40, days=2.0, seed=411)

needs_fork = pytest.mark.skipif(
    mp.get_start_method(allow_none=False) != "fork",
    reason="generation counting propagates to workers via fork only",
)


def _tasks():
    base = SimulationConfig(neighborhood_size=60, warmup_days=0.5)
    from dataclasses import replace

    return [
        SimulationTask(workload=Workload(model=MODEL), config=base,
                       baselines=("no_cache",)),
        SimulationTask(workload=Workload(model=MODEL),
                       config=replace(base, neighborhood_size=110)),
        SimulationTask(workload=Workload(model=MODEL, population_x=2),
                       config=base),
        SimulationTask(workload=Workload(model=MODEL), config=base),
    ]


def _fingerprint(outcomes):
    return [
        (result.counters, result.peak_server_gbps(),
         tuple(sorted(baselines.items())))
        for result, baselines in outcomes
    ]


def _fail_publishes(monkeypatch):
    """Make every publish fail, so workers regenerate their traces."""
    from repro.core import parallel

    def failing_publish(trace, directory=None):
        raise OSError("tmp is full")

    monkeypatch.setattr(parallel, "publish_trace", failing_publish)


def _clear_trace_caches():
    synthetic._cached_trace.cache_clear()
    workload_mod._cached_population_trace.cache_clear()
    workload_mod._cached_transformed_trace.cache_clear()


class TestBitIdentity:
    def test_shared_rows_match_serial(self):
        serial = _fingerprint(iter_task_results(_tasks(), workers=1))
        shared = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert shared == serial

    def test_shared_rows_match_regenerate(self, monkeypatch):
        shared = _fingerprint(iter_task_results(_tasks(), workers=2))
        _fail_publishes(monkeypatch)
        regenerated = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert shared == regenerated

    def test_shared_rows_match_regenerate_python_backend(self, monkeypatch):
        # The acceptance comparison pinned to the pure-python generator:
        # attach and regenerate must agree bit-for-bit there too.
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "python")
        shared = _fingerprint(iter_task_results(_tasks(), workers=2))
        _fail_publishes(monkeypatch)
        regenerated = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert shared == regenerated


@needs_fork
class TestCountTheGenerations:
    def test_workers_attach_instead_of_regenerating(self, monkeypatch):
        # The parent generates each distinct *shared* workload exactly
        # once -- lazily, when the pool's feeder thread pulls its first
        # task -- and its three tasks all attach instead of counting
        # worker-side generations.  The population_x=2 singleton is the
        # priced-in exception: workers fork before the lazy publish
        # generates anything, so the one unshared task rebuilds the
        # base trace in its worker rather than riding a fork-inherited
        # memo.
        _clear_trace_caches()
        parent_pid = os.getpid()
        parent_generations = mp.Value("i", 0)
        worker_generations = mp.Value("i", 0)
        real_generate = synthetic.generate_trace

        def counting(model, backend=None):
            counter = (parent_generations if os.getpid() == parent_pid
                       else worker_generations)
            with counter.get_lock():
                counter.value += 1
            return real_generate(model, backend=backend)

        monkeypatch.setattr(synthetic, "generate_trace", counting)
        outcomes = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert len(outcomes) == len(_tasks())
        assert parent_generations.value == 1
        assert worker_generations.value == 1

    def test_regenerate_path_pays_per_worker(self, monkeypatch):
        # The same sweep with no publish: cold workers regenerate, so
        # the counter exceeds the single parent-side generation -- the
        # cost the share removes.
        _clear_trace_caches()
        generations = mp.Value("i", 0)
        real_generate = synthetic.generate_trace

        def counting(model, backend=None):
            with generations.get_lock():
                generations.value += 1
            return real_generate(model, backend=backend)

        monkeypatch.setattr(synthetic, "generate_trace", counting)
        _fail_publishes(monkeypatch)
        outcomes = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert len(outcomes) == len(_tasks())
        assert generations.value >= 2

    def test_poisoned_generator_proves_attach(self, monkeypatch):
        # The strongest form: pre-generate in the parent, then make any
        # further generation fatal.  The sweep only completes if shared
        # workloads attach to the published columns (and singletons get
        # by on the fork-inherited memo) -- no worker regenerates.
        for task in _tasks():
            cached_workload_trace(task.workload)

        def exploding(model, backend=None):
            raise AssertionError("a worker regenerated a shared trace")

        monkeypatch.setattr(synthetic, "generate_trace", exploding)
        outcomes = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert len(outcomes) == len(_tasks())


class TestFallback:
    def test_publish_failure_falls_back_to_regeneration(self, monkeypatch):
        # An unwritable share target must degrade, not fail the sweep.
        _fail_publishes(monkeypatch)
        serial = _fingerprint(iter_task_results(_tasks(), workers=1))
        degraded = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert degraded == serial

    def test_stale_handle_falls_back_in_worker(self, monkeypatch):
        # A handle whose file vanished mid-sweep degrades worker-side.
        from repro.core.parallel import _execute_shared
        from repro.trace.share import SliceHandle

        task = _tasks()[0]
        gone = SliceHandle(path="/nonexistent/trace.cols", n_users=1,
                           n_programs=1, n_chunks=1, n_records=1)
        result, baselines = _execute_shared((task, gone))
        ref, ref_baselines = _execute_shared((task, None))
        assert result.counters == ref.counters
        assert baselines == ref_baselines

    def test_share_files_cleaned_up(self, tmp_path, monkeypatch):
        import glob
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        outcomes = _fingerprint(iter_task_results(_tasks(), workers=2))
        assert len(outcomes) == len(_tasks())
        assert glob.glob(str(tmp_path / "repro-slice-*")) == []


class TestPublishPolicy:
    def test_only_shared_workloads_published(self):
        from repro.core.parallel import _iter_task_payloads
        from repro.trace.share import unlink_slice

        tasks = _tasks()
        handles = {}
        try:
            payloads = list(_iter_task_payloads(tasks, handles))
            # The base workload backs three tasks -> published; the
            # population_x=2 singleton stays on the worker-side path
            # (publishing it would only serialize the sweep's start).
            assert set(handles) == {Workload(model=MODEL)}
            shared = handles[Workload(model=MODEL)]
            assert [(task, handle) for task, handle in payloads] == [
                (tasks[0], shared),
                (tasks[1], shared),
                (tasks[2], None),
                (tasks[3], shared),
            ]
        finally:
            for handle in handles.values():
                unlink_slice(handle.path)

    def test_publish_is_lazy(self):
        # Nothing is published until the first payload is pulled: the
        # pool's feeder thread drives this generator, so publishes
        # overlap running simulations instead of fronting the sweep.
        from repro.core.parallel import _iter_task_payloads
        from repro.trace.share import unlink_slice

        handles = {}
        payloads = _iter_task_payloads(_tasks(), handles)
        try:
            assert handles == {}
            next(payloads)
            assert set(handles) == {Workload(model=MODEL)}
        finally:
            payloads.close()
            for handle in handles.values():
                unlink_slice(handle.path)

    def test_first_failure_keeps_earlier_handles(self, monkeypatch):
        # A publish failure mid-stream stops *further* publishing but
        # keeps serving already-published workloads.
        from repro.core import parallel
        from repro.trace.share import unlink_slice

        base = SimulationConfig(neighborhood_size=60, warmup_days=0.5)
        other = Workload(model=MODEL, population_x=2)
        tasks = [
            SimulationTask(workload=Workload(model=MODEL), config=base),
            SimulationTask(workload=Workload(model=MODEL), config=base),
            SimulationTask(workload=other, config=base),
            SimulationTask(workload=other, config=base),
        ]
        real_publish = parallel.publish_trace
        published = []

        def publish_once_then_fail(trace, directory=None):
            if published:
                raise OSError("tmp filled up mid-sweep")
            handle = real_publish(trace, directory)
            published.append(handle)
            return handle

        monkeypatch.setattr(parallel, "publish_trace", publish_once_then_fail)
        handles = {}
        try:
            payloads = list(parallel._iter_task_payloads(tasks, handles))
            shared = handles[Workload(model=MODEL)]
            assert [handle for _, handle in payloads] == [
                shared, shared, None, None,
            ]
        finally:
            for handle in handles.values():
                unlink_slice(handle.path)


class TestBackendEnvRestore:
    def test_clearing_override_restores_user_env(self, monkeypatch):
        # A temporary --trace-backend pin must hand back whatever
        # REPRO_TRACE_BACKEND the user had exported, not erase it.
        import os

        from repro.trace import synthetic

        monkeypatch.setattr(synthetic, "_backend_override", None)
        monkeypatch.setattr(synthetic, "_env_before_override", None)
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "python")
        synthetic.set_trace_backend("auto")
        assert os.environ["REPRO_TRACE_BACKEND"] == "auto"
        synthetic.set_trace_backend(None)
        assert os.environ["REPRO_TRACE_BACKEND"] == "python"
        assert synthetic.resolve_trace_backend() == "python"


#: A sharded streamed run small enough for failure drills: 6 shards of
#: 60-user neighborhoods, split once per run into slice files.
SHARDED = Workload(model=PowerInfoModel(n_users=360, n_programs=40, days=2.0,
                                        seed=17))


def _shard_tasks(label="drill", n_shards=6):
    from repro.core.parallel import ShardSpec

    config = SimulationConfig(neighborhood_size=60, warmup_days=0.5)
    return [
        SimulationTask(workload=SHARDED, config=config, label=label,
                       shard=ShardSpec(n_shards=n_shards, index=index,
                                       streaming=True))
        for index in range(n_shards)
    ]


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.name.startswith("repro-"))


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Route every temp file of the run into an empty directory."""
    import tempfile

    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


class TestSliceCleanup:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_success_leaves_no_files(self, spill_dir, workers):
        outcomes = list(iter_task_results(_shard_tasks(), workers=workers))
        assert len(outcomes) == 6
        assert _leftovers(spill_dir) == []

    def test_slices_unlinked_as_their_tasks_return(self, spill_dir):
        # Two runs back to back: the first run's slices are gone before
        # the second run's last task has even been executed.
        tasks = _shard_tasks("a", 2) + _shard_tasks("b", 3)
        outcomes = iter_task_results(tasks, workers=1)
        for _ in range(3):
            next(outcomes)
        remaining = _leftovers(spill_dir)
        assert len(remaining) == 3
        assert all(name.startswith("repro-slice-") for name in remaining)
        outcomes.close()
        assert _leftovers(spill_dir) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_abandoned_generator_cleans_up(self, spill_dir, workers):
        outcomes = iter_task_results(_shard_tasks(), workers=workers)
        next(outcomes)
        outcomes.close()
        assert _leftovers(spill_dir) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_worker_cleans_up(self, spill_dir, monkeypatch, workers):
        from repro.core.system import CableVoDSystem

        from repro.errors import ReproError

        def poisoned(self, chunks=None, admission=None):
            raise RuntimeError("poisoned shard worker")

        monkeypatch.setattr(CableVoDSystem, "run", poisoned)
        with pytest.raises(ReproError, match="'drill'.*poisoned"):
            list(iter_task_results(_shard_tasks(), workers=workers))
        assert _leftovers(spill_dir) == []


class TestSpillFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_unwritable_tmpdir_names_the_scenario(self, tmp_path, monkeypatch,
                                                  workers):
        import tempfile

        from repro.errors import ReproError

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(ReproError, match="scenario 'metro-east'"):
            list(iter_task_results(_shard_tasks("metro-east"),
                                   workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_write_cleans_up(self, spill_dir, monkeypatch, workers):
        from repro.errors import ReproError
        from repro.trace.share import SliceWriter

        real_write = SliceWriter.write_chunk
        writes = []

        def disk_fills_up(self, *args):
            if writes:
                raise OSError(28, "No space left on device")
            writes.append(args)
            real_write(self, *args)

        monkeypatch.setattr(SliceWriter, "write_chunk", disk_fills_up)
        with pytest.raises(ReproError, match="scenario 'drill'.*No space"):
            list(iter_task_results(_shard_tasks(), workers=workers))
        assert _leftovers(spill_dir) == []

    def test_stopped_split_leaves_no_files(self, spill_dir):
        import threading

        from repro.core.shard import split_shard_slices
        from repro.errors import ReproError

        stop = threading.Event()
        stop.set()
        with pytest.raises(ReproError, match="scenario 'drill'.*abandoned"):
            split_shard_slices(_shard_tasks()[0], stop)
        assert _leftovers(spill_dir) == []

    def test_cli_exits_2_without_partial_csv(self, tmp_path, monkeypatch,
                                             capsys):
        import tempfile

        from repro.cli import main
        from repro.core import parallel
        from repro.scenario import Scenario

        scenario = Scenario(
            trace=SHARDED.model, label="metro-east", shards=3, streaming=True,
            config=SimulationConfig(neighborhood_size=60, warmup_days=0.5),
        )
        path = tmp_path / "metro.json"
        path.write_text(scenario.to_json())
        out = tmp_path / "rows.csv"
        missing = tmp_path / "missing"
        monkeypatch.setattr(parallel, "_default_workers", None)
        monkeypatch.setattr(tempfile, "tempdir", str(missing))
        code = main(["run", str(path), "--workers", "2", "--out", str(out)])
        assert code == 2
        assert "metro-east" in capsys.readouterr().err
        assert not out.exists()
        assert not missing.exists()


def _poison_replays(monkeypatch):
    from repro.core.system import CableVoDSystem

    def poisoned(self, chunks=None, admission=None):
        raise RuntimeError("poisoned worker")

    monkeypatch.setattr(CableVoDSystem, "run", poisoned)


class TestLabelledFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_unsharded_task_names_the_scenario(
            self, spill_dir, monkeypatch, workers):
        from dataclasses import replace

        from repro.errors import ReproError

        _poison_replays(monkeypatch)
        tasks = [replace(task, label="drill") for task in _tasks()]
        with pytest.raises(ReproError, match="scenario 'drill'") as caught:
            list(iter_task_results(tasks, workers=workers))
        assert "poisoned worker" in str(caught.value)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert _leftovers(spill_dir) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_library_error_keeps_its_class(self, monkeypatch, workers):
        from dataclasses import replace

        from repro.core.system import CableVoDSystem
        from repro.errors import SimulationError

        def refused(self, chunks=None, admission=None):
            raise SimulationError("refused replay")

        monkeypatch.setattr(CableVoDSystem, "run", refused)
        tasks = [replace(task, label="drill") for task in _tasks()]
        with pytest.raises(SimulationError,
                           match="^scenario 'drill': refused replay$"):
            list(iter_task_results(tasks, workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_error_is_not_wrapped_again(self, tmp_path, monkeypatch,
                                              workers):
        import tempfile

        from repro.errors import ReproError

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(ReproError) as caught:
            list(iter_task_results(_shard_tasks("metro-east"),
                                   workers=workers))
        message = str(caught.value)
        assert message.startswith("scenario 'metro-east': cannot write")
        assert message.count("metro-east") == 1

    def test_cli_exits_2_without_csv_or_files(self, tmp_path, spill_dir,
                                              monkeypatch, capsys):
        from repro.cli import main
        from repro.core import parallel
        from repro.scenario import Scenario

        scenario = Scenario(
            trace=SHARDED.model, label="metro-east", shards=3, streaming=True,
            config=SimulationConfig(neighborhood_size=60, warmup_days=0.5),
        )
        path = tmp_path / "metro.json"
        path.write_text(scenario.to_json())
        out = tmp_path / "rows.csv"
        monkeypatch.setattr(parallel, "_default_workers", None)
        _poison_replays(monkeypatch)
        code = main(["run", str(path), "--workers", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "metro-east" in err and "poisoned worker" in err
        assert not out.exists()
        assert _leftovers(spill_dir) == []
