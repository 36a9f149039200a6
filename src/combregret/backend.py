"""Value backends: exact dyadic arithmetic or IEEE floats.

The forward engine can run either way over one kind of table, whose rows
are (member, state) codes.  The exact backend is the reference; the float
backend trades exactness for speed and memory, and its error bound covers
pruned mass but not its own rounding.
"""

from __future__ import annotations

from enum import Enum


class ValueBackend(Enum):
    """Selects how weights and values are represented.

    ``EXACT`` ("exact") computes on scaled integers and returns ``Dyadic``
    values; ``FLOAT`` ("float") on binary64.  ``ValueBackend(name)`` looks a
    member up by its command-line name and raises ValueError for any other.
    Both are deterministic: results are a pure function of the inputs,
    independent of hash seeding and iteration order.
    """

    EXACT = "exact"
    FLOAT = "float"

    @property
    def is_exact(self) -> bool:
        return self is ValueBackend.EXACT


EXACT = ValueBackend.EXACT
FLOAT = ValueBackend.FLOAT
