"""The LSN is the offset: tail reads seek, truncation slices.

LSNs are dense and append-only — ``crash()`` only drops the unflushed
buffer and ``truncate_until`` only a prefix — so ``records(k)`` may
start at ``k - first retained LSN`` instead of decoding the log from
offset 0.  These tests pin the tail read to the full scan it replaces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WalCorruptionError
from repro.persistence import wal as wal_module
from repro.persistence.wal import WriteAheadLog


@pytest.fixture
def decoded(monkeypatch):
    """Every line handed to ``_try_decode`` while the test runs."""
    seen = []
    real = wal_module._try_decode

    def spy(line):
        seen.append(line)
        return real(line)

    monkeypatch.setattr(wal_module, "_try_decode", spy)
    return seen


def filled(n=10):
    wal = WriteAheadLog()
    for i in range(n):
        wal.append({"i": i})
    return wal


class TestSeek:
    def test_tail_read_decodes_only_what_it_returns(self, decoded):
        wal = filled(100)
        assert [r.lsn for r in wal.records(98)] == [98, 99, 100]
        assert len(decoded) == 3

    def test_truncate_decodes_nothing(self, decoded):
        wal = filled(100)
        assert wal.truncate_until(51) == 50
        assert decoded == []
        assert [r.lsn for r in wal.records(99)] == [99, 100]
        assert len(decoded) == 2

    def test_from_lsn_below_first_retained_starts_at_first_retained(self):
        wal = filled()
        wal.truncate_until(5)
        assert [r.lsn for r in wal.records(2)] == [5, 6, 7, 8, 9, 10]
        assert [r.lsn for r in wal.records()] == [5, 6, 7, 8, 9, 10]

    def test_truncate_is_idempotent_and_clamped(self):
        wal = filled()
        assert wal.truncate_until(4) == 3
        assert wal.truncate_until(4) == 0
        assert wal.truncate_until(2) == 0
        assert wal.truncate_until(1000) == 7
        assert wal.durable_count() == 0
        assert wal.append({"i": "next"}) == 11
        assert [r.lsn for r in wal.records(3)] == [11]

    def test_crash_then_append_reuses_the_lost_lsns_densely(self):
        wal = WriteAheadLog(auto_flush=False)
        for i in range(4):
            wal.append({"i": i})
        wal.flush()
        wal.append({"i": "lost"})
        assert wal.crash() == 1
        assert wal.append({"i": "again"}) == 5
        wal.flush()
        assert [(r.lsn, r.payload["i"]) for r in wal.records(4)] == [
            (4, 3), (5, "again"),
        ]

    def test_tail_read_does_not_vouch_for_the_skipped_prefix(self):
        wal = filled()
        wal.corrupt_at(2)
        assert [r.lsn for r in wal.records(6)] == [6, 7, 8, 9, 10]
        assert not wal.corruption_detected
        with pytest.raises(WalCorruptionError) as exc:
            list(wal.records(strict=True))
        assert (exc.value.offset, exc.value.last_good_lsn) == (2, 2)

    def test_strict_tail_read_reports_what_the_full_scan_reports(self):
        wal = filled()
        wal.truncate_until(3)
        wal.corrupt_at(4)  # LSN 7
        with pytest.raises(WalCorruptionError) as full:
            list(wal.records(strict=True))
        with pytest.raises(WalCorruptionError) as tail:
            list(wal.records(7, strict=True))
        assert (tail.value.offset, tail.value.last_good_lsn) == (4, 6)
        assert (full.value.offset, full.value.last_good_lsn) == (4, 6)


# -- property: a tail read is the full scan filtered by LSN --------------------

steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3)),
        st.tuples(st.just("flush"), st.just(0)),
        st.tuples(st.just("crash"), st.just(0)),
        st.tuples(st.just("truncate"), st.integers(0, 40)),
    ),
    max_size=40,
)


def build(script):
    wal = WriteAheadLog(auto_flush=False)
    for op, arg in script:
        if op == "append":
            for _ in range(arg):
                wal.append({"n": wal.next_lsn})
        elif op == "flush":
            wal.flush()
        elif op == "crash":
            wal.crash()
        else:
            wal.truncate_until(arg)
    return wal


def scan(wal, from_lsn):
    """(records, error) of one strict read."""
    out = []
    try:
        for rec in wal.records(from_lsn, strict=True):
            out.append((rec.lsn, rec.payload))
    except WalCorruptionError as exc:
        return out, (exc.offset, exc.last_good_lsn)
    return out, None


@given(steps, st.integers(0, 45))
@settings(max_examples=200, deadline=None)
def test_tail_read_equals_filtered_full_scan(script, k):
    wal = build(script)
    full, error = scan(wal, 0)
    assert error is None
    lsns = [lsn for lsn, _ in full]
    assert lsns == list(range(wal.flushed_lsn - len(full) + 1, wal.flushed_lsn + 1))
    assert all(payload == {"n": lsn} for lsn, payload in full)
    assert scan(wal, k) == ([r for r in full if r[0] >= k], None)


@given(steps, st.integers(0, 45), st.data())
@settings(max_examples=200, deadline=None)
def test_corruption_at_or_after_k_stops_the_tail_read(script, k, data):
    wal = build(script)
    full, _ = scan(wal, 0)
    eligible = [i for i, (lsn, _) in enumerate(full) if lsn >= k]
    if not eligible:
        return
    bad = data.draw(st.sampled_from(eligible))
    wal.corrupt_at(bad)
    full_prefix, full_error = scan(wal, 0)
    tail, tail_error = scan(wal, k)
    assert full_error == tail_error == (bad, full[bad][0] - 1 if bad else 0)
    assert tail == [r for r in full_prefix if r[0] >= k]
    # The lenient read stops at the same place and flags it.
    wal.corruption_detected = False
    assert [(r.lsn, r.payload) for r in wal.records(k)] == tail
    assert wal.corruption_detected
