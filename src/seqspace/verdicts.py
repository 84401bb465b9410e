"""Three-valued verdicts, and the reports that carry them.

Every check in this package answers one of Satisfied / Violated / Inconclusive.
Inconclusive is an honest answer: a truncated computation that cannot decide does
not guess.  Conjunction semantics: Violated dominates, then Inconclusive.  Every
report is a dataclass that serializes from its fields (:class:`Report`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import field, fields
from typing import Iterable

import numpy as np


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def conjoin(verdicts: Iterable[Verdict]) -> Verdict:
    """Combine sub-verdicts: any Violated wins, else any Inconclusive, else Satisfied."""
    out = Verdict.SATISFIED
    for v in verdicts:
        if v is Verdict.VIOLATED:
            return Verdict.VIOLATED
        if v is Verdict.INCONCLUSIVE:
            out = Verdict.INCONCLUSIVE
    return out


#: Process exit codes used by the command line interface.
EXIT_CODES = {
    Verdict.SATISFIED: 0,
    Verdict.VIOLATED: 1,
    Verdict.INCONCLUSIVE: 2,
}


def json_field(key=None, optional=False, **kwargs):
    """A report field written under ``key`` (default its own name; False
    keeps it out) and, when ``optional``, only when set: neither None nor
    empty."""
    return field(metadata={"json": key, "optional": optional}, **kwargs)


class Report:
    """Base of the report dataclasses: :meth:`to_dict` walks their fields,
    declared with :func:`json_field` where the JSON differs."""

    def to_dict(self) -> dict:
        """The fields under their JSON names, each through :func:`_jsonable`,
        with the unset optional ones left out."""
        out = {}
        for name, key, optional in _json_fields(type(self)):
            value = getattr(self, name)
            if optional and (value is None or (isinstance(
                    value, (str, tuple, list, dict)) and not value)):
                continue
            out[key] = _jsonable(value)
        return out


@functools.cache
def _json_fields(cls) -> tuple:
    """(attribute, JSON name, optional) of each field ``cls`` writes out."""
    return tuple((f.name, f.metadata.get("json") or f.name,
                  f.metadata.get("optional", False))
                 for f in fields(cls) if f.metadata.get("json") is not False)


#: The types that are JSON data as they stand.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonable(value):
    """``value`` as plain JSON data: verdicts as strings, tuples as lists,
    reports as their dicts and numpy scalars as Python numbers."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
