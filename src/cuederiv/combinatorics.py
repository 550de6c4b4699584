"""Partitions, standard Young tableau counts, and partition weights.

Everything here is exact integer combinatorics.  Partitions are stored dense
(nonzero parts only) and read with zero padding, since every formula downstream
indexes parts past the length of the partition.
"""

from __future__ import annotations

from math import factorial


class Partition:
    """A weakly decreasing sequence of positive integers.

    Reading ``parts[i]`` past the number of stored parts returns 0.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p != 0)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts {parts} are not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts {parts} contain a negative entry")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), 0 when i >= length."""
        if i < 0:
            raise IndexError("negative part index")
        return self.parts[i] if i < len(self.parts) else 0

    def padded(self, m: int) -> tuple[int, ...]:
        """Parts padded with zeros to length m; requires m >= length."""
        if m < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {m} < {len(self.parts)}")
        return self.parts + (0,) * (m - len(self.parts))

    def hook_lengths(self):
        """Hook length of every box, row by row."""
        cols = conjugate_parts(self.parts)
        return [
            [self.parts[i] - j + cols[j] - i - 1 for j in range(self.parts[i])]
            for i in range(len(self.parts))
        ]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.part(i)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of weight m, in descending lexicographic order.

    m = 0 yields the single empty partition.
    """
    if m < 0:
        raise ValueError("weight must be non-negative")
    result: list[Partition] = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            result.append(Partition(prefix))
            return
        for first in range(min(cap, remaining), 0, -1):
            descend(remaining - first, first, prefix + (first,))

    descend(m, m if m else 1, ())
    return result


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    if lam.weight == 0:
        return 1
    hook_product = 1
    for row in lam.hook_lengths():
        for h in row:
            hook_product *= h
    numerator = factorial(lam.weight)
    count, remainder = divmod(numerator, hook_product)
    if remainder:
        raise ArithmeticError(
            f"hook product {hook_product} does not divide {lam.weight}! for {lam}"
        )
    return count


def conjugate_parts(parts) -> tuple[int, ...]:
    """Column lengths of the Young diagram with the given row lengths."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def partition_factorial(lam: Partition, m: int):
    """Product of (lambda_i + m - i)! over i = 1..m with zero padding."""
    if m < lam.length:
        raise ValueError(f"m = {m} is smaller than the length of {lam}")
    padded = lam.padded(m)
    product = 1
    for i, part in enumerate(padded):
        product *= factorial(part + m - (i + 1))
    return product


def _partition_data(h: int, s: int):
    """(f, padded factorial, derivative orders) for each shape of weight h and
    length at most s; orders are lambda_i + s - i for i = 1..s."""
    data = []
    for lam in enumerate_partitions(h):
        if lam.length > s:
            continue
        padded = lam.padded(s)
        orders = tuple(padded[i] + s - (i + 1) for i in range(s))
        data.append((syt_count(lam), partition_factorial(lam, s), orders))
    return data
