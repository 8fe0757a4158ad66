"""Workload-family registry: lookup, round-trips, determinism, behavior.

Covers every registered family -- 'powerinfo', 'trace-driven', 'cdf',
'flash-crowd', 'catalog-churn', 'zipf-beta' -- and is the suite the
W-REG project-level lint points at for family coverage.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.trace.families import (
    WorkloadModel,
    coerce_trace_model,
    family_names,
    get_family,
    iter_families,
    spec_from_dict,
    spec_to_dict,
    workload_family,
)
from repro.trace.families.cdf import CDFModel, sampled_fractions
from repro.trace.families.stress import (
    CatalogChurnModel,
    FlashCrowdModel,
    ZipfBetaModel,
)
from repro.trace.families.tracefile import TraceFileModel
from repro.trace.io import dump_trace
from repro.trace.records import _sorted_trace
from repro.trace.synthetic import PowerInfoModel, cached_trace

SMALL_BASE = PowerInfoModel(n_users=80, n_programs=16, days=2.0, seed=5)

#: One non-default example spec per family; the round-trip tests fail
#: loudly if a newly registered family forgets to add one.
EXAMPLE_SPECS = {
    "powerinfo": PowerInfoModel(n_users=60, n_programs=12, days=2.0, seed=3),
    "trace-driven": TraceFileModel(path="logs/sessions.csv",
                                   format="columns", n_users=500),
    "cdf": CDFModel(n_users=50, n_programs=10, days=1.0, seed=7,
                    session_length_cdf=((0.5, 300.0), (1.0, 900.0))),
    "flash-crowd": FlashCrowdModel(base=SMALL_BASE, spike_x=8.0),
    "catalog-churn": CatalogChurnModel(base=SMALL_BASE, churn_day=0.5),
    "zipf-beta": ZipfBetaModel(base=SMALL_BASE, beta=1.5),
}

#: Families whose trace can be built without external fixture files.
BUILDABLE = ["powerinfo", "cdf", "flash-crowd", "catalog-churn", "zipf-beta"]


def buildable_spec(name):
    spec = EXAMPLE_SPECS[name]
    assert not isinstance(spec, TraceFileModel)
    return spec


class TestRegistry:
    def test_every_family_is_registered(self):
        assert set(EXAMPLE_SPECS) <= set(family_names())

    def test_every_family_has_an_example_spec(self):
        # New families must extend EXAMPLE_SPECS (and, transitively,
        # every parametrized suite below).
        assert set(family_names()) <= set(EXAMPLE_SPECS)

    def test_lookup_returns_the_spec_class(self):
        assert get_family("powerinfo").spec_class is PowerInfoModel
        assert get_family("cdf").spec_class is CDFModel

    def test_unknown_family_suggests_and_lists(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_family("cdff")
        message = str(excinfo.value)
        assert "did you mean 'cdf'" in message
        assert "choose from" in message

    def test_double_registration_is_rejected(self):
        with pytest.raises(ConfigurationError, match="registered twice"):
            @workload_family("cdf")
            class Impostor(WorkloadModel):
                pass

    def test_family_name_is_stamped_on_the_class(self):
        for info in iter_families():
            assert info.spec_class.family_name == info.name

    def test_capabilities_strings(self):
        assert get_family("powerinfo").capabilities() == \
            "streaming+transforms"
        assert get_family("trace-driven").capabilities() == "-"
        assert get_family("zipf-beta").capabilities() == "transforms"


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_SPECS))
    def test_example_spec_round_trips(self, name):
        spec = EXAMPLE_SPECS[name]
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("name", sorted(EXAMPLE_SPECS))
    def test_default_spec_round_trips(self, name):
        spec = get_family(name).spec_class()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_powerinfo_wire_format_is_the_legacy_one(self):
        # Pre-registry scenario files carry exactly these four keys and
        # no 'family' marker; the registry must not disturb them.
        payload = spec_to_dict(PowerInfoModel(
            n_users=60, n_programs=20, days=2.5, seed=9))
        assert payload == {"n_users": 60, "n_programs": 20,
                           "days": 2.5, "seed": 9}
        assert spec_from_dict(payload) == PowerInfoModel(
            n_users=60, n_programs=20, days=2.5, seed=9)

    def test_other_families_carry_their_family_key(self):
        for name, spec in EXAMPLE_SPECS.items():
            if name == "powerinfo":
                continue
            assert spec_to_dict(spec)["family"] == name

    def test_nested_base_serializes_recursively(self):
        payload = spec_to_dict(EXAMPLE_SPECS["flash-crowd"])
        assert payload["base"] == spec_to_dict(SMALL_BASE)
        rebuilt = spec_from_dict(payload)
        assert rebuilt.base == SMALL_BASE

    def test_unknown_field_is_rejected_with_the_valid_ones(self):
        with pytest.raises(ConfigurationError, match="has no fields"):
            spec_from_dict({"family": "cdf", "n_userz": 10})

    def test_json_lists_coerce_to_frozen_tuples(self):
        spec = spec_from_dict({
            "family": "cdf",
            "session_length_cdf": [[0.5, 300.0], [1.0, 900.0]],
        })
        assert spec.session_length_cdf == ((0.5, 300.0), (1.0, 900.0))
        assert hash(spec) is not None

    def test_coerce_accepts_spec_name_and_dict(self):
        assert coerce_trace_model(SMALL_BASE) is SMALL_BASE
        assert coerce_trace_model("cdf") == CDFModel()
        assert coerce_trace_model({"family": "zipf-beta"}) == ZipfBetaModel()
        with pytest.raises(ConfigurationError, match="trace model"):
            coerce_trace_model(42)


class TestDeterminism:
    @pytest.mark.parametrize("name", BUILDABLE)
    def test_rebuild_is_identical(self, name):
        spec = buildable_spec(name)
        first = spec.build_trace()
        second = spec_from_dict(spec_to_dict(spec)).build_trace()
        assert list(first) == list(second)
        assert first.catalog.programs == second.catalog.programs
        assert first.n_users == second.n_users

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_with_seed_changes_the_trace(self, name):
        spec = buildable_spec(name)
        reseeded = spec.with_seed(20212)
        assert isinstance(reseeded, type(spec))
        assert list(spec.build_trace()) != list(reseeded.build_trace())


class TestPowerInfoFamily:
    def test_build_trace_matches_the_pre_registry_generator(self):
        model = EXAMPLE_SPECS["powerinfo"]
        assert list(model.build_trace()) == list(cached_trace(model))


class TestCDFFamily:
    def test_durations_take_only_the_listed_cdf_values(self):
        spec = EXAMPLE_SPECS["cdf"]
        trace = spec.build_trace()
        allowed = {value for _, value in spec.session_length_cdf}
        assert {r.duration_seconds for r in trace} <= allowed
        assert len(trace) > 0

    def test_popularity_head_dominates(self):
        # 2% of titles / 35% of accesses (default curve): on a 100-title
        # catalog the two head programs must out-draw a fair share.
        spec = CDFModel(n_users=200, n_programs=100, days=2.0, seed=11)
        trace = spec.build_trace()
        per_program = trace.sessions_per_program()
        head = per_program.get(0, 0) + per_program.get(1, 0)
        assert head > 0.2 * len(trace)

    def test_diurnal_weights_shape_arrivals(self):
        night_only = (1.0,) * 6 + (0.0,) * 18
        spec = CDFModel(n_users=100, n_programs=10, days=1.0, seed=3,
                        diurnal_weights=night_only)
        for record in spec.build_trace():
            assert (record.start_time % 86400.0) < 6 * 3600.0

    def test_cdf_shape_validation(self):
        with pytest.raises(ConfigurationError, match="ascend"):
            CDFModel(session_length_cdf=((0.8, 100.0), (0.5, 200.0),
                                         (1.0, 300.0)))
        with pytest.raises(ConfigurationError, match="end at"):
            CDFModel(popularity_cdf=((0.5, 0.9),))
        with pytest.raises(ConfigurationError, match="24"):
            CDFModel(diurnal_weights=(1.0,) * 23)

    def test_sampled_fractions_helper_is_deterministic(self):
        points = ((0.5, 1.0), (1.0, 2.0))
        assert sampled_fractions(points, 8, seed=4) == \
            sampled_fractions(points, 8, seed=4)
        assert set(sampled_fractions(points, 64, seed=4)) == {1.0, 2.0}


class TestFlashCrowdFamily:
    def test_spike_adds_sessions_on_the_target_in_the_window(self):
        spec = EXAMPLE_SPECS["flash-crowd"]
        base_trace = SMALL_BASE.build_trace()
        spiked = spec.build_trace()
        assert len(spiked) > len(base_trace)
        target = base_trace.most_popular_program()
        extra = len(spiked) - len(base_trace)
        window = (spec.spike_day * 86400.0,
                  spec.spike_day * 86400.0 + spec.spike_hours * 3600.0)
        in_window_on_target = [
            r for r in spiked.records_between(*window)
            if r.program_id == target
        ]
        base_in_window_on_target = [
            r for r in base_trace.records_between(*window)
            if r.program_id == target
        ]
        assert len(in_window_on_target) == \
            len(base_in_window_on_target) + extra

    def test_explicit_target_out_of_catalog_is_rejected(self):
        spec = FlashCrowdModel(base=SMALL_BASE, program_id=999)
        with pytest.raises(ConfigurationError, match="catalog"):
            spec.build_trace()


class TestCatalogChurnFamily:
    def test_records_before_churn_are_untouched_after_remapped(self):
        spec = EXAMPLE_SPECS["catalog-churn"]
        base_trace = SMALL_BASE.build_trace()
        churned = spec.build_trace()
        assert len(churned) == len(base_trace)
        churn_time = spec.churn_day * 86400.0
        moved = 0
        for before, after in zip(base_trace, churned):
            assert after.start_time == before.start_time
            assert after.user_id == before.user_id
            assert after.duration_seconds == before.duration_seconds
            if before.start_time < churn_time:
                assert after.program_id == before.program_id
            elif after.program_id != before.program_id:
                moved += 1
        assert moved > 0

    def test_remap_stays_within_equal_length_classes(self):
        spec = EXAMPLE_SPECS["catalog-churn"]
        base_trace = SMALL_BASE.build_trace()
        churned = spec.build_trace()
        for before, after in zip(base_trace, churned):
            assert (churned.catalog[after.program_id].length_seconds
                    == base_trace.catalog[before.program_id].length_seconds)


class TestStressColumns:
    """Column transforms re-sort exactly as the record constructor sorts."""

    def test_reordered_ties_sort_like_records(self):
        from repro.trace.records import SessionRecord, Trace
        from tests.conftest import make_catalog

        # Rows as a remap or a spike leaves them: tied starts whose
        # users/programs are out of order, and one whole-key tie.
        rows = [(5.0, 1, 2, 60.0), (5.0, 1, 0, 70.0), (5.0, 0, 3, 80.0),
                (1.0, 2, 1, 90.0), (9.0, 0, 0, 100.0), (5.0, 1, 0, 110.0)]
        catalog = make_catalog()
        expected = Trace([SessionRecord(*row) for row in rows], catalog,
                         n_users=3)
        got = _sorted_trace(*map(list, zip(*rows)), catalog, 3)
        assert got.columns() == expected.columns()

    def test_ascending_starts_are_kept_as_given(self):
        from tests.conftest import make_catalog

        columns = ([1.0, 2.0], [1, 0], [3, 0], [60.0, 70.0])
        got = _sorted_trace(*columns, make_catalog(), 2)
        assert got.columns() == columns


class TestZipfBetaFamily:
    def test_only_user_ids_change(self):
        spec = EXAMPLE_SPECS["zipf-beta"]
        base_trace = SMALL_BASE.build_trace()
        skewed = spec.build_trace()
        assert len(skewed) == len(base_trace)
        for before, after in zip(base_trace, skewed):
            assert after.start_time == before.start_time
            assert after.program_id == before.program_id
            assert after.duration_seconds == before.duration_seconds
        assert ([r.user_id for r in skewed]
                != [r.user_id for r in base_trace])

    def test_head_user_dominates_with_large_beta(self):
        spec = ZipfBetaModel(base=SMALL_BASE, beta=2.0)
        counts = {}
        for record in spec.build_trace():
            counts[record.user_id] = counts.get(record.user_id, 0) + 1
        top = max(counts.values())
        assert top > len(SMALL_BASE.build_trace()) / SMALL_BASE.n_users * 5


class TestTraceDrivenFamily:
    @pytest.fixture()
    def dumped_log(self, tmp_path):
        trace = PowerInfoModel(
            n_users=120, n_programs=30, days=3.0, seed=11).build_trace()
        path = tmp_path / "sessions.csv"
        dump_trace(trace, path)
        return path, trace

    def test_container_replay_matches_the_dumped_trace(self, dumped_log):
        path, original = dumped_log
        spec = TraceFileModel(path=str(path))
        replayed = spec.build_trace()
        assert list(replayed) == list(original)
        assert replayed.catalog.programs == original.catalog.programs
        assert replayed.n_users == original.n_users

    def test_columns_format_infers_catalog_and_users(self, tmp_path):
        path = tmp_path / "flat.csv"
        lines = ["start_time,user_id,program_id,duration_seconds"]
        rng_free_rows = [
            (hour * 900.0 + i, (hour * 7 + i) % 40, (hour * 3 + i) % 5,
             60.0 * (1 + (hour + i) % 4))
            for hour in range(3 * 96) for i in range(2)
        ]
        lines += [f"{t},{u},{p},{d}" for t, u, p, d in rng_free_rows]
        path.write_text("\n".join(lines) + "\n")
        spec = TraceFileModel(path=str(path), format="columns")
        trace = spec.build_trace()
        assert len(trace) == len(rng_free_rows)
        assert trace.n_users == 40
        assert len(trace.catalog) == 5
        # Each program's inferred length is its longest observed session.
        for program in trace.catalog:
            assert program.length_seconds == max(
                r[3] for r in rng_free_rows if r[2] == program.program_id)

    def test_degenerate_log_fails_validation_with_named_findings(
            self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "start_time,user_id,program_id,duration_seconds\n"
            "0.0,0,0,60.0\n"
            "100.0,1,0,60.0\n"
        )
        spec = TraceFileModel(path=str(path), format="columns")
        with pytest.raises(ConfigurationError,
                           match="meaningful caching experiments"):
            spec.build_trace()

    def test_thresholds_can_be_relaxed(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rows = [(i * 600.0, i % 3, i % 2, 60.0) for i in range(20)]
        path.write_text(
            "start_time,user_id,program_id,duration_seconds\n"
            + "\n".join(f"{t},{u},{p},{d}" for t, u, p, d in rows) + "\n")
        spec = TraceFileModel(path=str(path), format="columns",
                              min_sessions=0, min_span_days=0.0)
        assert len(spec.build_trace()) == 20

    def test_missing_file_and_empty_path_are_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            TraceFileModel(path="/no/such/log.csv").build_trace()
        with pytest.raises(ConfigurationError, match="path"):
            TraceFileModel().build_trace()

    def test_malformed_log_names_the_file(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("this,is,not\na,session,log\n")
        spec = TraceFileModel(path=str(path), format="columns")
        with pytest.raises(ConfigurationError, match="garbage.csv"):
            spec.build_trace()

    def test_fixed_log_refuses_the_seed_override(self):
        with pytest.raises(ConfigurationError, match="no seed"):
            TraceFileModel(path="x.csv").with_seed(1)

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            TraceFileModel(path="x.csv", format="parquet")


class TestCapabilityFlags:
    def test_streaming_is_powerinfo_only_today(self):
        streaming = [info.name for info in iter_families()
                     if info.spec_class.supports_streaming]
        assert streaming == ["powerinfo"]

    def test_trace_driven_refuses_transforms(self):
        assert not TraceFileModel.supports_transforms

    def test_stress_shapes_declare_their_base_population(self):
        assert EXAMPLE_SPECS["flash-crowd"].declared_n_users() == \
            SMALL_BASE.n_users
        assert TraceFileModel(path="x.csv").declared_n_users() is None
        assert TraceFileModel(path="x.csv",
                              n_users=500).declared_n_users() == 500

    def test_specs_are_frozen_dataclasses(self):
        for info in iter_families():
            assert dataclasses.is_dataclass(info.spec_class)
            params = getattr(info.spec_class, "__dataclass_params__")
            assert params.frozen
