"""Shared verdict types and error classes used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


class DomainError(ValueError):
    """Input violates a structural contract (bad mask, wrong length, oversized space)."""


class HypothesisError(RuntimeError):
    """A verifier's hypothesis gate failed; the statement was not evaluated.

    Raised instead of returning a verdict so that an unmet hypothesis can
    never be mistaken for a confirmation.
    """

    def __init__(self, message: str, detail: Any = None):
        super().__init__(message)
        self.detail = detail


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive, grid, or sampled check.

    ``margin`` is the smallest slack observed when the check holds, and the
    largest violation when it fails.  A failing result always carries a
    ``witness`` with enough data to reproduce the violation by direct
    evaluation.  ``status`` distinguishes a genuine mathematical failure
    (``"checked"``) from a gate that never ran (``"premise-failed"`` or
    ``"condition-failed"``).  A zero margin is always ``0.0``, never ``-0.0``.
    """

    holds: bool
    margin: float = math.inf
    witness: dict[str, Any] | None = None
    mode: str = "exhaustive"
    status: str = "checked"
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("failing CheckResult requires a witness")
        if isinstance(self.margin, float) and self.margin == 0.0:
            object.__setattr__(self, "margin", 0.0)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "holds": self.holds,
            "margin": _json_float(self.margin),
            "mode": self.mode,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.detail:
            out["detail"] = _jsonify(self.detail)
        return out


@dataclass(frozen=True)
class RelationVerdict:
    """Decision for a binary relation between two functions.

    Every relation in ``nonadd.relations`` is decided exactly, so ``mode``
    is ``exhaustive``; the field keeps the report schema of the other
    results.
    """

    relation: str
    holds: bool
    witness: dict[str, Any] | None = None
    mode: str = "exhaustive"

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("failing RelationVerdict requires a witness")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "relation": self.relation,
            "holds": self.holds,
            "mode": self.mode,
        }
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        return out


def _json_float(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _jsonify(obj):
    """Recursively convert a witness structure to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return _json_float(obj)
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return _jsonify(obj.item())
    if isinstance(obj, (CheckResult, RelationVerdict)):
        return obj.to_dict()
    return obj
