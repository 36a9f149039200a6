"""Value backends: exact dyadic arithmetic or IEEE floats.

The forward engine can run either way over one transition table.  The exact
backend is the reference; the float backend trades exactness for speed and
memory and reports a rigorous error bound instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ValueBackend:
    """Selects how weights and values are represented.

    kind is "exact" (scaled integers, returned as ``Dyadic``) or "float"
    (binary64).  Both are deterministic: results are a pure function of the
    inputs, independent of hash seeding and iteration order.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = ValueBackend("exact")
FLOAT = ValueBackend("float")


def get_backend(name: str) -> ValueBackend:
    if name == "exact":
        return EXACT
    if name == "float":
        return FLOAT
    raise ValueError(f"unknown backend: {name!r} (expected 'exact' or 'float')")
