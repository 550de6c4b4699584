import math

import pytest
from hypothesis import given, strategies as st

from cuederiv.combinatorics import _partition_data
from oracles import (
    DescendingComposition,
    enumerate_partitions,
    enumerate_standard_tableaux,
    omega_weight,
    partition_count,
    partition_data,
    partition_factorial,
    syt_count,
)


class TestPartition:
    def test_padding(self):
        # (3, 1) is read as (3, 1, 0, 0) at s = 4: orders lambda_i + s - i
        assert enumerate_partitions(4)[1] == (3, 1)
        f, fact = syt_count((3, 1)), math.factorial(6) * math.factorial(3)
        assert _partition_data(4)[1] == (f, fact, (6, 3, 1, 0))

    def test_pad_too_short(self):
        # shapes longer than s are skipped, and cannot be padded to s
        assert partition_data(2, 1) == [(1, 2, (2,))]
        with pytest.raises(ValueError):
            partition_factorial((2, 1), 1)

    def test_frobenius_weights_match_hook_lengths(self):
        # Same shapes, order, tableau counts, factorials and orders.
        for s in range(1, 13):
            assert list(_partition_data(s)) == partition_data(s, s), s


class TestEnumeration:
    def test_empty(self):
        assert enumerate_partitions(0) == [()]

    def test_three(self):
        assert enumerate_partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_eight_has_22(self):
        assert len(enumerate_partitions(8)) == 22

    def test_unique_and_correct_weight(self):
        for m in range(9):
            parts = enumerate_partitions(m)
            assert len(set(parts)) == len(parts)
            assert all(sum(p) == m for p in parts)
            assert all(0 not in p for p in parts)
            assert all(list(p) == sorted(p, reverse=True) for p in parts)

    def test_counts_match_pentagonal_recurrence(self):
        for m in range(31):
            assert partition_count(m) == (
                len(enumerate_partitions(m)) if m <= 20 else partition_count(m)
            )
        # spot values of p(m)
        assert [partition_count(m) for m in (10, 20, 30)] == [42, 627, 5604]

    @given(st.integers(min_value=0, max_value=14))
    def test_descending_lex_order(self, m):
        parts = enumerate_partitions(m)
        assert parts == sorted(parts, reverse=True)


class TestSytCount:
    def test_single_box(self):
        assert syt_count((1,)) == 1

    def test_two_one(self):
        assert syt_count((2, 1)) == 2

    def test_matches_backtracking_enumeration(self):
        for m in range(7):
            for lam in enumerate_partitions(m):
                assert syt_count(lam) == len(enumerate_standard_tableaux(lam))

    def test_square_sum_is_factorial(self):
        for m in range(9):
            assert sum(syt_count(p) ** 2 for p in enumerate_partitions(m)) == math.factorial(m)


class TestOmega:
    def test_base_cases(self):
        assert omega_weight(DescendingComposition((1,))) == 1
        assert omega_weight(DescendingComposition((2, 1))) == 1
        assert omega_weight(DescendingComposition((3, 2, 1))) == 1

    def test_rejects_bad_compositions(self):
        with pytest.raises(ValueError):
            DescendingComposition((1, 1))
        with pytest.raises(ValueError):
            DescendingComposition((3, 1))  # wrong sum
        with pytest.raises(ValueError):
            DescendingComposition((2, -1))

    def test_equals_tableau_count_up_to_six(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                if len(lam) > n:
                    continue
                q = DescendingComposition.from_partition(lam, n)
                assert omega_weight(q) == syt_count(lam), (n, lam)

    def test_partition_round_trip(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                q = DescendingComposition.from_partition(lam, n)
                assert q.to_partition() == lam


class TestPartitionFactorial:
    def test_empty(self):
        assert partition_factorial((), 1) == 1

    def test_single(self):
        assert partition_factorial((1,), 1) == 1

    def test_two_one_padded_to_three(self):
        # (2+2)! (1+1)! (0+0)! = 24 * 2 * 1
        assert partition_factorial((2, 1), 3) == 48

    def test_rejects_short_padding(self):
        with pytest.raises(ValueError):
            partition_factorial((2, 1, 1), 2)
