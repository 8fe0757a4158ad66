"""Trace data model: validation, ordering, queries."""

from array import array

import pytest

from repro import units
from repro.core.config import SimulationConfig
from repro.core.system import CableVoDSystem
from repro.errors import TraceError
from repro.trace.records import (
    Catalog,
    Program,
    SessionRecord,
    Trace,
    check_columns,
    check_references,
)
from repro.trace.share import (
    SliceReader,
    SliceWriter,
    attach_columns,
    attach_trace,
)

from tests.conftest import make_catalog, make_record


class TestProgram:
    def test_size_scales_with_length(self):
        short = Program(0, 30 * 60.0)
        long = Program(1, 60 * 60.0)
        assert long.size_bytes == pytest.approx(2 * short.size_bytes)

    def test_hundred_minute_program_six_gb(self):
        program = Program(0, 100 * 60.0)
        assert program.size_bytes == pytest.approx(6.045e9, rel=1e-3)

    def test_num_segments(self):
        assert Program(0, 100 * 60.0).num_segments == 20

    def test_rejects_negative_id(self):
        with pytest.raises(TraceError):
            Program(-1, 60.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(TraceError):
            Program(0, 0.0)

    def test_backcatalog_negative_introduction_allowed(self):
        assert Program(0, 60.0, introduced_at=-1e6).introduced_at == -1e6


class TestCatalog:
    def test_len_and_iteration(self):
        catalog = make_catalog()
        assert len(catalog) == 4
        assert [p.program_id for p in catalog] == [0, 1, 2, 3]

    def test_requires_dense_ids(self):
        with pytest.raises(TraceError):
            Catalog([Program(1, 60.0)])

    def test_lookup_unknown_raises(self):
        with pytest.raises(TraceError):
            make_catalog()[99]

    def test_contains(self):
        catalog = make_catalog()
        assert 0 in catalog
        assert 4 not in catalog
        assert -1 not in catalog

    def test_total_size(self):
        catalog = make_catalog(lengths_minutes=(10, 20))
        expected = units.program_size_bytes(600) + units.program_size_bytes(1200)
        assert catalog.total_size_bytes() == pytest.approx(expected)


class TestSessionRecord:
    def test_end_time(self):
        record = make_record(start=100.0, minutes=5.0)
        assert record.end_time == 400.0

    def test_bits_delivered(self):
        record = make_record(minutes=1.0)
        assert record.bits_delivered == pytest.approx(60 * units.STREAM_RATE_BPS)

    def test_ordering_by_start_time(self):
        early = make_record(start=1.0)
        late = make_record(start=2.0)
        assert early < late

    def test_rejects_negative_start(self):
        with pytest.raises(TraceError):
            SessionRecord(-1.0, 0, 0, 60.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(TraceError):
            SessionRecord(0.0, 0, 0, 0.0)

    def test_rejects_negative_ids(self):
        with pytest.raises(TraceError):
            SessionRecord(0.0, -1, 0, 60.0)
        with pytest.raises(TraceError):
            SessionRecord(0.0, 0, -1, 60.0)


class TestTrace:
    def test_records_sorted_regardless_of_input_order(self, catalog):
        records = [make_record(start=t) for t in (300.0, 100.0, 200.0)]
        trace = Trace(records, catalog)
        assert [r.start_time for r in trace] == [100.0, 200.0, 300.0]

    def test_rejects_unknown_program(self, catalog):
        with pytest.raises(TraceError):
            Trace([make_record(program=99)], catalog)

    def test_rejects_duration_beyond_program_length(self, catalog):
        # Program 0 is 30 minutes long.
        with pytest.raises(TraceError):
            Trace([make_record(program=0, minutes=31.0)], catalog)

    def test_rejects_user_beyond_declared_population(self, catalog):
        with pytest.raises(TraceError):
            Trace([make_record(user=10)], catalog, n_users=5)

    def test_infers_n_users(self, catalog):
        trace = Trace([make_record(user=7)], catalog)
        assert trace.n_users == 8

    def test_span_days(self, catalog):
        records = [make_record(start=0.0, minutes=10.0),
                   make_record(start=units.SECONDS_PER_DAY, minutes=30.0, program=1)]
        trace = Trace(records, catalog)
        assert trace.span_days == pytest.approx(1.0 + 30.0 / (24 * 60))

    def test_records_between_half_open(self, simple_trace):
        records = simple_trace.records_between(100.0, 300.0)
        assert [r.start_time for r in records] == [100.0, 200.0]

    def test_sessions_per_program(self, simple_trace):
        counts = simple_trace.sessions_per_program()
        assert counts == {0: 5, 1: 5}

    def test_most_popular_breaks_ties_deterministically(self, simple_trace):
        # Both programs have 5 sessions; lower id wins.
        assert simple_trace.most_popular_program() == 0

    def test_most_popular_empty_raises(self, catalog):
        with pytest.raises(TraceError):
            Trace([], catalog).most_popular_program()

    def test_total_bits(self, catalog):
        trace = Trace([make_record(minutes=1.0), make_record(start=10.0, minutes=2.0)],
                      catalog)
        assert trace.total_bits_delivered() == pytest.approx(
            180 * units.STREAM_RATE_BPS
        )

    def test_restricted_to_window(self, simple_trace):
        window = simple_trace.restricted_to_window(0.0, 500.0)
        assert len(window) == 5
        assert window.n_users == simple_trace.n_users

    def test_empty_trace_properties(self, catalog):
        trace = Trace([], catalog)
        assert len(trace) == 0
        assert trace.start_time == 0.0
        assert trace.end_time == 0.0
        assert trace.span_days == 0.0


def _columns_of(trace):
    return tuple(list(column) for column in trace.columns())


class TestColumnView:
    """A column-built trace answers from its columns; records are a view."""

    @pytest.fixture
    def pair(self, tiny_trace):
        by_records = Trace(list(tiny_trace), tiny_trace.catalog,
                           n_users=tiny_trace.n_users)
        by_columns = Trace.from_columns(*_columns_of(tiny_trace),
                                        tiny_trace.catalog,
                                        tiny_trace.n_users)
        return by_records, by_columns

    def test_metadata_needs_no_record(self, pair, monkeypatch):
        by_records, by_columns = pair

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        monkeypatch.setattr(SessionRecord, "__init__", refuse)
        assert len(by_columns) == len(by_records)
        assert by_columns.start_time == by_records.start_time
        assert by_columns.end_time == by_records.end_time
        assert by_columns.span_days == by_records.span_days
        assert (list(by_columns.sessions_per_program().items())
                == list(by_records.sessions_per_program().items()))
        assert (by_columns.most_popular_program()
                == by_records.most_popular_program())
        assert (by_columns.total_bits_delivered()
                == by_records.total_bits_delivered())
        assert by_columns.columns() == by_records.columns()
        window = by_columns.restricted_to_window(3600.0, 86400.0)
        assert window.columns() == by_records.restricted_to_window(
            3600.0, 86400.0).columns()

    def test_records_view_is_built_once_and_equal(self, pair):
        by_records, by_columns = pair
        view = by_columns.records
        assert view is by_columns.records
        assert view == by_records.records
        assert list(by_columns) == view
        assert by_columns[0] == view[0] and by_columns[-1] == view[-1]

    def test_records_between_builds_only_the_window(self, pair, monkeypatch):
        by_records, by_columns = pair
        expected = by_records.records_between(3600.0, 7200.0)
        built = []
        real = SessionRecord.__init__

        def counting(record, *args, **kwargs):
            built.append(args)
            real(record, *args, **kwargs)

        monkeypatch.setattr(SessionRecord, "__init__", counting)
        assert by_columns.records_between(3600.0, 7200.0) == expected
        assert 0 < len(built) == len(expected) < len(by_columns)


#: (column, row, value): one damaged field per case.
DAMAGES = [
    pytest.param((0, 0, -1.0), id="negative-start"),
    pytest.param((1, 3, -1), id="negative-user"),
    pytest.param((2, 3, -1), id="negative-program"),
    pytest.param((3, 3, 0.0), id="zero-duration"),
    pytest.param((3, 3, -60.0), id="negative-duration"),
]


#: Damages only a slice reader can see: each row is a valid record, but
#: it names what the four-user, four-program trace lacks, or outlasts
#: its program (row 3 watches program 1, 60 minutes long).
REFERENCE_DAMAGES = [
    pytest.param((1, 3, 4), id="user-n_users"),
    pytest.param((2, 3, 4), id="program-n_programs"),
    pytest.param((3, 3, 36_000.0), id="duration-10x-length"),
]


def _damaged(columns, damage):
    column, row, value = damage
    columns = [list(c) for c in columns]
    columns[column][row] = value
    return columns


class TestColumnChecks:
    """Columns carry the ``SessionRecord`` field rules, checked per column."""

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_from_columns_refuses(self, simple_trace, damage):
        columns = _damaged(simple_trace.columns(), damage)
        with pytest.raises(TraceError):
            SessionRecord(*(c[damage[1]] for c in columns))
        with pytest.raises(TraceError):
            Trace.from_columns(*columns, simple_trace.catalog,
                               simple_trace.n_users)

    def test_duration_message_names_the_session(self, simple_trace):
        columns = _damaged(simple_trace.columns(), (3, 3, -60.0))
        with pytest.raises(TraceError, match=r"got -60.0 \(user 3, program 1"):
            check_columns(*columns)

    def test_leading_nan_hides_no_negative(self):
        nan = float("nan")
        with pytest.raises(TraceError, match="duration"):
            check_columns([0.0, 1.0], [0, 0], [0, 0], [nan, -1.0])
        check_columns([0.0, 1.0], [0, 0], [0, 0], [nan, 1.0])

    def test_empty_columns_pass(self):
        check_columns([], [], [], [])


class TestDamagedSlices:
    """A damaged slice file fails the same way on every reader and engine."""

    @pytest.fixture
    def damaged_slice(self, simple_trace, tmp_path, request):
        columns = _damaged(simple_trace.columns(), request.param)
        writer = SliceWriter(simple_trace.catalog, simple_trace.n_users,
                             directory=str(tmp_path))
        writer.write_chunk(0, 0, 0, array("d", columns[0]),
                           array("q", columns[1]), array("q", columns[2]),
                           array("d", columns[3]))
        return writer.close()

    @pytest.mark.parametrize("damaged_slice", DAMAGES + REFERENCE_DAMAGES,
                             indirect=True)
    def test_reader_chunks_refuse(self, damaged_slice):
        with pytest.raises(TraceError):
            list(SliceReader(damaged_slice).chunks())

    @pytest.mark.parametrize("damaged_slice", DAMAGES + REFERENCE_DAMAGES,
                             indirect=True)
    def test_attach_trace_refuses(self, damaged_slice):
        with pytest.raises(TraceError):
            attach_trace(damaged_slice)

    @pytest.mark.parametrize("engine", ["bucket", "columnar"])
    @pytest.mark.parametrize("damaged_slice", DAMAGES + REFERENCE_DAMAGES,
                             indirect=True)
    def test_chunk_run_refuses(self, damaged_slice, engine):
        with attach_columns(damaged_slice) as reader:
            system = CableVoDSystem(
                None, SimulationConfig(neighborhood_size=2), engine=engine,
                catalog=reader.catalog, n_users=reader.n_users)
            with pytest.raises(TraceError):
                system.run(reader.chunks())


class TestReferenceChecks:
    """``check_references``: ids in range, durations within their programs."""

    def test_clean_columns_pass(self, simple_trace):
        _, users, programs, durations = simple_trace.columns()
        limits = [length + 1.0 for length in simple_trace.catalog.lengths]
        check_references(users, programs, durations, 4, limits)
        check_references([], [], [], 0, [])

    @pytest.mark.parametrize("damage, message", [
        ((1, 3, 4), "references user 4"),
        ((2, 3, 4), "references program 4 but the catalog has 4"),
        ((3, 3, 36_000.0), r"36000.0s exceeds program 1 length .*user 3"),
    ])
    def test_each_damage_is_named(self, simple_trace, damage, message):
        _, users, programs, durations = _damaged(simple_trace.columns(), damage)
        limits = [length + 1.0 for length in simple_trace.catalog.lengths]
        with pytest.raises(TraceError, match=message):
            check_references(users, programs, durations, 4, limits)

    def test_one_second_of_slack_as_the_list_constructor(self, simple_trace):
        # Program 1 is 3600 s long: 3601 s passes both, 3601.5 s neither.
        limits = [length + 1.0 for length in simple_trace.catalog.lengths]
        check_references([0], [1], [3601.0], 4, limits)
        with pytest.raises(TraceError):
            check_references([0], [1], [3601.5], 4, limits)
        with pytest.raises(TraceError):
            Trace([make_record(program=1, minutes=3601.5 / 60)],
                  simple_trace.catalog)
