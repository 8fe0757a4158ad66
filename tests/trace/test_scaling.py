"""Paper section V-A trace scaling transforms."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.trace.records import Trace
from repro.trace.scaling import scale_catalog, scale_population

from tests.conftest import make_catalog, make_record


@pytest.fixture
def base_trace_fixture(catalog):
    records = [
        make_record(start=60.0 * i, user=i % 3, program=i % 4, minutes=3 + i)
        for i in range(12)
    ]
    return Trace(records, catalog, n_users=3)


class TestPopulationScaling:
    def test_factor_one_is_identity(self, base_trace_fixture):
        assert scale_population(base_trace_fixture, 1) is base_trace_fixture

    def test_record_count_multiplies(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 3)
        assert len(scaled) == 3 * len(base_trace_fixture)

    def test_user_population_multiplies(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 4)
        assert scaled.n_users == 12

    def test_copies_map_to_distinct_user_ranges(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 2)
        users = {r.user_id for r in scaled}
        assert users <= set(range(6))
        assert any(u >= 3 for u in users)

    def test_originals_preserved_verbatim(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 2)
        original_keys = {
            (r.start_time, r.user_id, r.program_id) for r in base_trace_fixture
        }
        scaled_keys = {(r.start_time, r.user_id, r.program_id) for r in scaled}
        assert original_keys <= scaled_keys

    def test_copies_jittered_1_to_60_seconds(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 2)
        by_start = {r.start_time: r for r in base_trace_fixture}
        for record in scaled:
            if record.user_id >= base_trace_fixture.n_users:
                base = record.user_id % base_trace_fixture.n_users
                candidates = [
                    o for o in base_trace_fixture
                    if o.user_id == base and o.program_id == record.program_id
                    and 1.0 <= record.start_time - o.start_time <= 60.0
                ]
                assert candidates, f"copy {record} lacks a jitter-matched original"

    def test_copy_keeps_program_and_duration(self, base_trace_fixture):
        scaled = scale_population(base_trace_fixture, 2)
        base_durations = sorted(r.duration_seconds for r in base_trace_fixture)
        copies = [r for r in scaled if r.user_id >= base_trace_fixture.n_users]
        assert sorted(r.duration_seconds for r in copies) == base_durations

    def test_deterministic(self, base_trace_fixture):
        a = scale_population(base_trace_fixture, 3)
        b = scale_population(base_trace_fixture, 3)
        assert [r.start_time for r in a] == [r.start_time for r in b]

    def test_rejects_factor_below_one(self, base_trace_fixture):
        with pytest.raises(ConfigurationError):
            scale_population(base_trace_fixture, 0)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_property_bits_scale_linearly(self, factor):
        catalog = make_catalog()
        records = [make_record(start=30.0 * i, user=i % 2, program=i % 4,
                               minutes=2 + i % 5) for i in range(8)]
        trace = Trace(records, catalog, n_users=2)
        scaled = scale_population(trace, factor)
        assert scaled.total_bits_delivered() == pytest.approx(
            factor * trace.total_bits_delivered()
        )


class TestCatalogScaling:
    def test_factor_one_is_identity(self, base_trace_fixture):
        assert scale_catalog(base_trace_fixture, 1) is base_trace_fixture

    def test_catalog_multiplies(self, base_trace_fixture):
        scaled = scale_catalog(base_trace_fixture, 5)
        assert len(scaled.catalog) == 5 * len(base_trace_fixture.catalog)

    def test_record_count_unchanged(self, base_trace_fixture):
        scaled = scale_catalog(base_trace_fixture, 5)
        assert len(scaled) == len(base_trace_fixture)

    def test_events_remap_to_copies_of_same_program(self, base_trace_fixture):
        n = len(base_trace_fixture.catalog)
        scaled = scale_catalog(base_trace_fixture, 3)
        for original, remapped in zip(base_trace_fixture, scaled):
            assert remapped.program_id % n == original.program_id
            assert remapped.start_time == original.start_time
            assert remapped.duration_seconds == original.duration_seconds

    def test_copies_inherit_length(self, base_trace_fixture):
        n = len(base_trace_fixture.catalog)
        scaled = scale_catalog(base_trace_fixture, 2)
        for program in scaled.catalog:
            assert program.length_seconds == (
                base_trace_fixture.catalog[program.program_id % n].length_seconds
            )

    def test_demand_actually_diluted(self, tiny_trace):
        scaled = scale_catalog(tiny_trace, 4)
        base_top = max(tiny_trace.sessions_per_program().values())
        scaled_top = max(scaled.sessions_per_program().values())
        assert scaled_top < base_top

    def test_deterministic(self, base_trace_fixture):
        a = scale_catalog(base_trace_fixture, 3)
        b = scale_catalog(base_trace_fixture, 3)
        assert [r.program_id for r in a] == [r.program_id for r in b]

    def test_rejects_factor_below_one(self, base_trace_fixture):
        with pytest.raises(ConfigurationError):
            scale_catalog(base_trace_fixture, -1)

    def test_composes_with_population_scaling(self, base_trace_fixture):
        scaled = scale_catalog(scale_population(base_trace_fixture, 2), 3)
        assert len(scaled) == 2 * len(base_trace_fixture)
        assert len(scaled.catalog) == 3 * len(base_trace_fixture.catalog)
        assert scaled.n_users == 2 * base_trace_fixture.n_users


class TestBackendBitIdentity:
    """Each transform's rows are pinned bit for bit, with or without numpy.

    The digests cover the columns, the user count and the catalog, and
    were taken from the scalar ``SessionRecord`` transform and its numpy
    twin, which agreed on every case: each factor, the composition, and
    a tie-heavy trace whose ``(start, user)`` ties exercise the stable
    ``(start, user, program)`` sort.
    """

    DIGESTS = {
        "population-x2": "05d5f5c2ca46a9a0889d8abd33cc1a2b037af72a665aa5553bdfe1a446d1029c",
        "population-x3": "0e152499367fe795cdb0d04efab7bb96360fcbdf6f78cae6ca449811dab71322",
        "population-x5": "e06354b611e60dc6ad087a3c6daf8b0e932b799290965014113c489a74253e01",
        "catalog-x2": "f02c9e01245739885c90a749b65a6dc5aacc1ae4f8a52aedd205c5b8ee987828",
        "catalog-x3": "01f753ea39a04e767063b115cb29abe8dc6230aff0ee764336855ad90d348d12",
        "catalog-x5": "30306d57ae43ed675b7e024a0b17ea0fd1447a68c85af7665461ae3ca645b354",
        "composed": "25b164a5d44d0d1e2734c1ee0a1603cd6fa3c89b30b1730cea4c1d78b5801d6a",
        "tie-heavy-population-x3": "f08b73ba0ca4b1fb77207c8e26ff8d59ecf581baed6f18cfa36508683edb48bc",
        "tie-heavy-catalog-x3": "cf0c419fa3803eb5485373ccedc4d56d0c53d0c81775dc71a9c00089a485e318",
    }

    @staticmethod
    def _digest(trace):
        catalog = [(p.program_id, p.length_seconds, p.introduced_at)
                   for p in trace.catalog]
        payload = repr(([list(column) for column in trace.columns()],
                        trace.n_users, catalog))
        return hashlib.sha256(payload.encode()).hexdigest()

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_population_scaling_matches_scalar(self, base_trace_fixture, factor):
        scaled = scale_population(base_trace_fixture, factor)
        assert self._digest(scaled) == self.DIGESTS[f"population-x{factor}"]

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_catalog_scaling_matches_scalar(self, base_trace_fixture, factor):
        scaled = scale_catalog(base_trace_fixture, factor)
        assert self._digest(scaled) == self.DIGESTS[f"catalog-x{factor}"]

    def test_composed_transforms_match_scalar(self, base_trace_fixture):
        scaled = scale_catalog(scale_population(base_trace_fixture, 2), 3)
        assert self._digest(scaled) == self.DIGESTS["composed"]

    def test_tie_heavy_trace_matches_scalar(self):
        catalog = make_catalog()
        records = sorted(
            (make_record(start=600.0 * (i % 2), user=i % 2,
                         program=i % 4, minutes=5 + i)
             for i in range(16)),
            key=lambda r: (r.start_time, r.user_id, r.program_id),
        )
        trace = Trace(records, catalog, n_users=2)
        assert (self._digest(scale_population(trace, 3))
                == self.DIGESTS["tie-heavy-population-x3"])
        assert (self._digest(scale_catalog(trace, 3))
                == self.DIGESTS["tie-heavy-catalog-x3"])
