"""Shared verdict types and error classes used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
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


# JSON text of the scalar types a report is made of; only a float's repr
# can be a bare inf, -inf or nan, which is replaced by the string _jsonify
# gives it
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, float: float.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): {None: "null"}.__getitem__}
_NONFINITE_TEXT = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _dumps(obj) -> str:
    """``json.dumps(_jsonify(obj), sort_keys=True, indent=2)`` in one walk.

    The pure-Python encoder that ``indent`` selects, fed by a converted copy,
    is the slow part of printing a report; this writer converts as it goes."""
    parts: list[str] = []
    _write(obj, parts.append, "\n")
    return "".join(parts)


def _write(obj, append, newline: str) -> None:
    """Append the JSON text of ``obj``, whose lines after the first start
    with ``newline``.  A module-level function: a closure that called itself
    would keep its output alive in a reference cycle until the cyclic GC ran."""
    kind = type(obj)
    text = _SCALAR_TEXT.get(kind)
    if text is not None:
        text = text(obj)
        append(_NONFINITE_TEXT.get(text, text))
        return
    inner = newline + "  "
    if kind is dict:
        if not obj:
            append("{}")
            return
        try:
            keys = sorted(obj)
            heads = list(map(_encode_str, keys))
        except TypeError:                      # a key that is not a str
            _write(_jsonify(obj), append, newline)
            return
        sep = "{" + inner
        for key, head in zip(keys, heads):
            append(sep + head + ": ")
            _write(obj[key], append, inner)
            sep = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            append("[]")
            return
        try:                                   # a list of scalars is one join
            texts = [_SCALAR_TEXT[type(v)](v) for v in obj]
        except KeyError:
            sep = "[" + inner
            for value in obj:
                append(sep)
                _write(value, append, inner)
                sep = "," + inner
            append(newline + "]")
            return
        if "inf" in texts or "-inf" in texts or "nan" in texts:
            texts = [_NONFINITE_TEXT.get(t, t) for t in texts]
        append("[" + inner + ("," + inner).join(texts) + newline + "]")
    else:                                      # numpy scalars, results, subclasses
        safe = _jsonify(obj)
        if safe is not obj:
            _write(safe, append, newline)
        elif isinstance(obj, str):
            append(_encode_str(obj))
        elif isinstance(obj, (int, float)):    # as the encoder writes a subclass
            append(int.__repr__(obj) if isinstance(obj, int) else float.__repr__(obj))
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
