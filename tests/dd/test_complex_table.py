"""Unit tests for the tolerance-aware complex table."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE


class TestLookup:
    def test_exact_seeds_present(self):
        table = ComplexTable()
        for seed in (0j, 1 + 0j, -1 + 0j, 1j, -1j):
            assert table.lookup(seed) == seed

    def test_merges_within_tolerance(self):
        table = ComplexTable(1e-10)
        canonical = table.lookup(0.5 + 0.5j)
        merged = table.lookup(0.5 + 1e-11 + 0.5j)
        assert merged is canonical

    def test_near_zero_snaps_to_zero(self):
        table = ComplexTable(1e-10)
        assert table.lookup(1e-12 + 1e-12j) == 0j

    def test_near_one_snaps_to_one(self):
        table = ComplexTable(1e-10)
        assert table.lookup(1.0 + 1e-11) == 1.0 + 0j

    def test_distinct_values_kept_apart(self):
        table = ComplexTable(1e-10)
        a = table.lookup(0.3)
        b = table.lookup(0.3 + 1e-6)
        assert a != b

    def test_hit_miss_counters(self):
        table = ComplexTable()
        misses = table.misses
        table.lookup(0.123 + 0.456j)
        assert table.misses == misses + 1
        hits = table.hits
        table.lookup(0.123 + 0.456j)
        assert table.hits == hits + 1

    def test_len_tracks_stored_values(self):
        table = ComplexTable()
        before = len(table)
        table.lookup(0.777)
        assert len(table) == before + 1

    def test_clear_reseeds(self):
        table = ComplexTable()
        table.lookup(0.777)
        table.clear()
        assert table.lookup(1 + 0j) == 1 + 0j
        assert len(table) == 5

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ComplexTable(0.0)
        with pytest.raises(ValueError):
            ComplexTable(-1e-9)

    def test_larger_tolerance_merges_more(self):
        coarse = ComplexTable(1e-2)
        a = coarse.lookup(0.500)
        b = coarse.lookup(0.505)
        assert a is b

    def test_ids_survive_bucket_collisions_of_large_values(self):
        """Around 4e6 adjacent floats are further apart than the
        tolerance yet can share a bucket key; they evict each other from
        the bucket, and a returning value must keep its first id.  A
        re-issued id once shifted every later id off its value, which
        turned a noisy QFT's system-matrix DD into the zero matrix."""
        table = ComplexTable(1e-10)
        first = complex(4008124.3707044655)
        second = complex(math.nextafter(first.real, math.inf))
        while table._key(first) != table._key(second):
            first = second
            second = complex(math.nextafter(first.real, math.inf))
        assert abs(first - second) > table.tolerance
        id_first = table.lookup_id(first)
        id_second = table.lookup_id(second)
        assert table.lookup_id(first) == id_first
        assert table.lookup_id(second) == id_second
        fresh = table.lookup_id(0.123 + 0.456j)
        assert table.value_of(id_first) == first
        assert table.value_of(id_second) == second
        assert table.value_of(fresh) == 0.123 + 0.456j
        assert table.num_ids() == len(set(table._values))


class TestLookupProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.complex_numbers(
            max_magnitude=2.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_lookup_is_idempotent(self, value):
        table = ComplexTable()
        first = table.lookup(value)
        assert table.lookup(first) is first

    @settings(max_examples=200, deadline=None)
    @given(
        st.complex_numbers(
            min_magnitude=0.5,
            max_magnitude=2.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    )
    def test_perturbed_canonical_merges(self, value, dx, dy):
        """Perturbing a stored canonical below tolerance maps back to it.

        (The guarantee is relative to the *stored* value: tolerance-based
        interning is not transitive, so perturbing the original input can
        legitimately land on a new canonical — same as in QCEC.)
        """
        tol = 1e-10
        table = ComplexTable(tol)
        canonical = table.lookup(value)
        perturbed = canonical + complex(dx, dy) * (tol / 4)
        assert table.lookup(perturbed) == canonical
