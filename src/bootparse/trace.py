"""The per-iteration trace of a bootstrapping loop.

loops writes one IterationRecord per completed iteration, and a
LoopTrace as JSON lines next to the models; report reads it back.  This
module loads neither numpy nor the classifiers, so report starts
without them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import check_int, check_number, json_value


def _check_map(name: str, value, check) -> None:
    """Raise ValueError unless value is a dict keyed by strings whose
    every item passes check(its name, item)."""
    if not (isinstance(value, dict) and all(isinstance(key, str) for key in value)):
        raise ValueError(f"{name} must be an object keyed by strings, got {value!r}")
    for key, item in value.items():
        check(f"{name}[{key!r}]", item)


@dataclass(frozen=True)
class IterationRecord:
    """Sizes and validation metrics observed in one loop iteration.

    The iteration and the sizes are ints >= 0, pools and selected map
    names to ints >= 0, and metrics maps each view to its metrics'
    finite numbers; anything else is a ValueError.
    """

    iteration: int
    inside_size: int
    outside_size: int
    pools: dict[str, int]
    selected: dict[str, int]
    metrics: dict[str, dict]

    def __post_init__(self):
        for name in ("iteration", "inside_size", "outside_size"):
            check_int(name, getattr(self, name), 0)
        for name in ("pools", "selected"):
            _check_map(name, getattr(self, name), lambda what, n: check_int(what, n, 0))
        _check_map(
            "metrics", self.metrics, lambda view, values: _check_map(view, values, check_number)
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass(frozen=True)
class LoopTrace:
    """One record per completed iteration, in order."""

    records: tuple[IterationRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_jsonl(self) -> str:
        return "".join(rec.to_json() + "\n" for rec in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "LoopTrace":
        """Parse to_jsonl output; a bad record is a ValueError naming its line."""
        records = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                records.append(IterationRecord(**json_value(line, "the record")))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {exc!r}") from exc
        return cls(records=tuple(records))
