"""Validated JSON reading/writing for persisted models.

Model files are plain JSON. Loading rejects unknown schema versions,
missing fields, and non-finite numbers, reporting the offending field path.
"""

import json
import math

import numpy as np

from .errors import ModelFormatError, ModelMismatchError
from .features import Normalizer


def _reject_constant(token: str):
    raise ModelFormatError(f"non-finite JSON token {token!r} is not allowed")


def write_document(payload: dict, sink) -> None:
    """Write the payload as JSON. The text is made before the sink is opened,
    so a payload with a non-finite number raises ValueError and writes nothing."""
    text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    handle = open(sink, "w") if own else sink
    try:
        handle.write(text)
    finally:
        if own:
            handle.close()


def read_document(source, expected_schema: str) -> dict:
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    handle = open(source, "r") if own else source
    try:
        try:
            doc = json.load(handle, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not a valid model file: {exc}") from None
    finally:
        if own:
            handle.close()
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must contain a JSON object")
    schema = doc.get("schema")
    if schema != expected_schema:
        raise ModelFormatError(
            f"unsupported schema {schema!r}; this reader handles "
            f"{expected_schema!r}"
        )
    return doc


def require(doc: dict, field: str):
    if field not in doc:
        raise ModelFormatError(f"missing field '{field}'")
    return doc[field]


def finite_scalar(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"field '{path}' must be a number")
    if not math.isfinite(value):
        raise ModelFormatError(f"field '{path}' is not finite")
    return float(value)


def finite_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ModelFormatError(f"field '{path}' must be an array of numbers")
    return np.array(
        [finite_scalar(v, f"{path}[{i}]") for i, v in enumerate(value)]
    )


def finite_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"field '{path}' must be a non-empty array")
    rows = [finite_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ModelFormatError(f"field '{path}' rows have inconsistent lengths")
    return np.stack(rows)


def normalizer_to_json(normalizer: Normalizer | None) -> dict | None:
    if normalizer is None:
        return None
    return {"min": normalizer.minimum.tolist(), "max": normalizer.maximum.tolist()}


def normalizer_from_json(doc: dict, dim: int) -> Normalizer | None:
    """The model's 'normalizer' field: null, or min/max arrays of length dim."""
    raw = require(doc, "normalizer")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ModelFormatError("field 'normalizer' must be an object or null")
    minimum = finite_vector(require(raw, "min"), "normalizer.min")
    maximum = finite_vector(require(raw, "max"), "normalizer.max")
    if minimum.shape != maximum.shape or minimum.shape[0] != dim:
        raise ModelMismatchError("normalizer arrays do not match model dimension")
    return Normalizer(minimum=minimum, maximum=maximum)
