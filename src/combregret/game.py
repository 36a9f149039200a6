"""Core mechanics of the expert game in gap coordinates.

A position is summarized by the sorted vector of gaps behind the current
leader: ``gaps[0] == 0`` and ``gaps`` is nondecreasing.  Ranks are 1-based
positions in that vector, so rank 1 is the leader and rank k the trailer.

A balanced rank-subset strategy names a set S of ranks; each day the experts
at ranks in S gain 1 (and the rest 0) with probability 1/2, otherwise the
complement gains.  Balance pins the player's expected total at half the
horizon regardless of the player's algorithm, which reduces expected regret
to the expected maximum total gain minus that constant.  The day index and
absolute totals therefore never need to be part of the state.

The packed state code stores each gap after the leader's in
``packed_width(k)`` bits.  One module knows its layout, this one: ``pack``
and ``unpack`` place and read every gap's bits, for a Python int or a whole
int64 array of codes alike, and ``collapse`` sets every gap below the first
split a horizon cannot close to one far ``sentinel``, on arrays of codes.
``forward._successors``, the one transition on packed codes, reads the tie
pattern of arrays of codes through ``unpack``: re-sorting a child's gaps
only reorders runs of tied gaps, and ``pack`` is additive over in-range
gaps, so the step adds a tabulated offset to each code.  Every engine, the
forward sweeps and the adaptive solver alike, steps each state once in a
``forward._Table`` of (member, state) codes through ``_successors``; the
adaptive solver values collapsed states only.  The tests check
``_successors`` against the brute-force oracle's step on raw totals, which
shares no state representation with it, and ``collapse`` against a collapse
of gap tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

GapState = tuple[int, ...]

MIN_K = 2
MAX_K = 8


def check_expert_count(k: int) -> None:
    """Raise ValueError unless k lies in MIN_K..MAX_K, the expert counts
    every engine and the packed code support."""
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"expert count must be in {MIN_K}..{MAX_K}, got k={k}")


@dataclass(frozen=True)
class RankSubset:
    """A validated subset of ranks 1..k, kept sorted.

    A subset and its complement induce the same balanced strategy; the
    canonical representative of the pair is the one containing rank 1.
    Construction does not canonicalize (complement inputs are legal), but
    every engine canonicalizes before computing.
    """

    k: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        check_expert_count(self.k)
        if not self.ranks:
            raise ValueError("rank subset must be nonempty")
        if list(self.ranks) != sorted(set(self.ranks)):
            raise ValueError(f"ranks must be strictly increasing: {self.ranks!r}")
        if self.ranks[0] < 1 or self.ranks[-1] > self.k:
            raise ValueError(f"ranks must lie in 1..{self.k}: {self.ranks!r}")

    @classmethod
    def of(cls, k: int, ranks: Iterable[int]) -> "RankSubset":
        return cls(k, tuple(sorted(ranks)))

    @classmethod
    def comb(cls, k: int) -> "RankSubset":
        """The odd ranks 1, 3, 5, ... up to k."""
        return cls(k, tuple(range(1, k + 1, 2)))

    @classmethod
    def parse(cls, k: int, text: str) -> "RankSubset":
        """Parse a comma-separated rank list such as ``1,3``, or ``comb``."""
        check_expert_count(k)
        s = text.strip()
        if s == "comb":
            return cls.comb(k)
        try:
            ranks = tuple(int(part) for part in s.split(","))
        except ValueError:
            raise ValueError(f"bad rank list: {text!r}") from None
        try:
            return cls.of(k, ranks)
        except ValueError as e:
            raise ValueError(f"rank out of range or malformed subset {text!r}: {e}") from None

    def complement_ranks(self) -> tuple[int, ...]:
        mine = set(self.ranks)
        return tuple(r for r in range(1, self.k + 1) if r not in mine)

    def canonical(self) -> "RankSubset":
        """The representative of the {S, complement} pair containing rank 1."""
        if 1 in self.ranks:
            return self
        return RankSubset(self.k, self.complement_ranks())

    def gains(self) -> tuple[int, ...]:
        """Per-rank 0/1 gains of the branch where this subset receives gain 1."""
        mine = set(self.ranks)
        return tuple(1 if r in mine else 0 for r in range(1, self.k + 1))

    def complement_gains(self) -> tuple[int, ...]:
        return tuple(1 - a for a in self.gains())

    def label(self) -> str:
        return ",".join(str(r) for r in self.ranks)

    def __str__(self):
        return self.label()


def all_strategies(k: int) -> Iterator[RankSubset]:
    """Every distinct balanced strategy, one per {S, complement} pair.

    Representatives all contain rank 1, so there are exactly 2^(k-1) of them,
    including the full set (whose strategy never changes the gaps).  Emitted
    in lexicographic rank order, which fixes tie-breaking everywhere a scan
    reports an argmax.
    """
    check_expert_count(k)
    others = range(2, k + 1)
    subsets = []
    for size in range(0, k):
        for rest in combinations(others, size):
            subsets.append((1,) + rest)
    for ranks in sorted(subsets):
        yield RankSubset(k, ranks)


def packed_width(k: int) -> int:
    """Bits per gap in the packed code of a k-expert state: 12, or fewer
    where the k - 1 packed gaps would not fit the 63 bits of an int64."""
    check_expert_count(k)
    return min(12, 63 // (k - 1))


def pack(gaps, k: int):
    """The packed code of the k gaps ``gaps``, leader first: an int for
    ints, an int64 array for arrays of gaps.  Gap i lands in bits
    ``packed_width(k) * (i - 1)`` onwards; the leader's zero is dropped,
    so the trailer's gap is the most significant field.  Nothing is
    checked.  While every gap lies in 0..2^width - 1 the fields do not
    overlap, so the code is the sum of gap i times 2^(width * (i - 1)):
    ``pack`` is additive over in-range gaps, and the difference of two
    codes depends only on the differences of their gaps."""
    width = packed_width(k)
    code = 0
    for i in range(1, k):
        code = code | gaps[i] << (width * (i - 1))
    return code


def unpack(codes, k: int) -> tuple:
    """The k gaps, leader first, of the packed code ``codes``: ints for an
    int, one array per rank for an int64 array of codes.  Nothing is
    checked."""
    width = packed_width(k)
    mask = (1 << width) - 1
    # codes & 0 is the leader's zero, as an int or as an array
    return (codes & 0,) + tuple((codes >> (width * i)) & mask for i in range(k - 1))


def sentinel(k: int) -> int:
    """The gap ``collapse`` gives every expert below a split: 2^width - 2,
    so that a child of it, at most one more, still fits its field."""
    return (1 << packed_width(k)) - 2


def collapse(codes, k: int, r: int):
    """The int64 array of codes ``codes`` with r days left, each with every
    gap below its first split set to ``sentinel(k)``.

    With sorted gaps g_0 = 0 <= g_1 <= ... <= g_(k-1), the first split is
    the first i with g_(i+1) - g_i >= r + 1.  A gap between two experts
    closes by at most 1 a day, so within r days no expert below the split
    reaches the lead, and none ties or swaps rank with one above it: ranks
    1 .. i + 1 keep the same experts, and every leader delta depends on
    them alone; the experts below the split only reorder among themselves,
    at ranks i + 2 .. k.  So a state and its
    collapse have the same scaled value N(s, r) under every sequence of
    family members, as long as the collapse keeps the split: S - g_i >=
    r + 1 for the sentinel S.  A state reached at day d has every gap at
    most d, so that holds when S >= T + 1 for the horizon T = d + r.  The
    sentinel keeps the split from day to day: the gap across it closes to
    at least r, a split again with r - 1 days left, so every gap below it
    is set back to S, and collapsed codes repeat.  A state with no split
    is returned as it is.  Nothing is checked.
    """
    width = packed_width(k)
    gaps = unpack(codes, k)
    # the first field below the first split; k - 1, past the last, for none
    first = np.full(codes.shape, k - 1)
    for i in reversed(range(k - 1)):
        first[gaps[i + 1] - gaps[i] > r] = i
    keep = np.array([(1 << width * i) - 1 for i in range(k)], dtype=np.int64)
    far = sentinel(k)
    tail = np.array([pack((0,) * (i + 1) + (far,) * (k - 1 - i), k) for i in range(k)], dtype=np.int64)
    return codes & keep[first] | tail[first]
