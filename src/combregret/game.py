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
int64 array of codes alike, and ``encode_state`` and ``decode_state`` add
the checks of a single state.  ``forward._successors`` steps arrays of codes
through them.  Every engine, the
forward sweeps and the adaptive solver alike, steps each state once in a
``forward._TransitionTable`` through ``_successors``, and the adaptive
solver maps gap tuples to rows and back through the table's ``row_of`` and
``gaps``.  ``step`` is the scalar transition on the same codes: the
reference the tests check the engines against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

GapState = tuple[int, ...]

MIN_K = 2
MAX_K = 8


def check_expert_count(k: int) -> None:
    """Raise ValueError unless k lies in MIN_K..MAX_K, the expert counts
    every engine and the packed code support."""
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"expert count must be in {MIN_K}..{MAX_K}, got k={k}")


def initial_state(k: int) -> GapState:
    """Day-zero state: everyone tied with the leader."""
    check_expert_count(k)
    return (0,) * k


def validate_state(gaps: GapState) -> None:
    """Raise ValueError unless ``gaps`` is a valid sorted gap vector: a
    leader gap of zero, then nondecreasing (hence nonnegative) gaps."""
    check_expert_count(len(gaps))
    if gaps[0] != 0:
        raise ValueError(f"leader gap must be zero: {gaps!r}")
    for a, b in zip(gaps, gaps[1:]):
        if b < a:
            raise ValueError(f"gaps must be nondecreasing: {gaps!r}")


def apply_gains(gaps: GapState, gains: tuple[int, ...]) -> tuple[GapState, int]:
    """Apply one day of 0/1 gains (indexed by rank) to a gap state.

    Returns the re-sorted next state and the leader delta, i.e. how much the
    maximum total gain rose that day.  The delta is always 0 or 1: nobody can
    overtake the leader by more than a single unit in one day.
    """
    # relative scores: the expert at rank i moves to gains[i] - gaps[i]
    rel = [a - g for a, g in zip(gains, gaps)]
    delta = max(rel)
    nxt = tuple(sorted(delta - r for r in rel))
    return nxt, delta


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


def step(
    code: int, k: int, gains_a: tuple[int, ...], gains_b: tuple[int, ...]
) -> tuple[int, int, int]:
    """One day from the packed state ``code``: the scalar reference
    transition.

    ``gains_a`` and ``gains_b`` are the per-rank gains of the two equally
    likely branches (a subset and its complement).  Returns the packed
    successor of each branch and the sum of their leader deltas.
    """
    if len(gains_a) != k or len(gains_b) != k:
        raise ValueError(f"gain vectors must have k={k} entries")
    gaps = decode_state(code, k)
    child_a, delta_a = apply_gains(gaps, gains_a)
    child_b, delta_b = apply_gains(gaps, gains_b)
    return encode_state(child_a), encode_state(child_b), delta_a + delta_b


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
    ``packed_width(k) * (i - 1)`` onwards; the leader's zero is dropped.
    Nothing is checked."""
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


def encode_state(gaps: GapState) -> int:
    """Pack a gap vector into an int, ``packed_width(k)`` bits per gap.

    The leading gap is always zero and is omitted, so every code fits an
    int64.  Gaps up to 4095 are encodable through k = 6, 1023 at k = 7 and
    511 at k = 8; no gap exceeds the number of days played.  Keys compare in
    reverse-lexicographic order of the gap tuples (trailer gap is the most
    significant field).
    """
    validate_state(gaps)
    width = packed_width(len(gaps))
    # the gaps are sorted, so the last is the largest
    if gaps[-1] >= 1 << width:
        raise ValueError(f"gap {gaps[-1]} out of encodable range 0..{(1 << width) - 1}")
    return pack(gaps, len(gaps))


def decode_state(code: int, k: int) -> GapState:
    """Inverse of encode_state."""
    if code < 0:
        raise ValueError("state code must be nonnegative")
    if code >> (packed_width(k) * (k - 1)):
        raise ValueError(f"code {code} has bits beyond k={k} gaps")
    return unpack(code, k)
