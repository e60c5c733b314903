"""Validated JSON reading/writing for persisted models.

A model file is a JSON object whose "schema" names the model ("gpcr-svm/1"
or "gpcr-nb/1"). `read_document` parses it once and names every accepted
schema when it rejects one; the caller dispatches on `doc["schema"]`.
`read_common` reads the fields both models carry: "positive_label" (only
"human": a score >= 0 means human), "normalizer" (null or min/max arrays)
and "train_positive_prior" (null or the training set's human fraction).
Loading rejects missing fields and non-finite numbers, naming the field.
"""

import json
import math

import numpy as np

from .errors import ModelFormatError, ModelMismatchError
from .features import Normalizer
from .seqio import Label

POSITIVE_LABEL = Label.HUMAN.value


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


def read_document(source, *schemas: str) -> dict:
    """Parse one model file; its schema must be one of schemas."""
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
    if schema not in schemas:
        raise ModelFormatError(
            f"unsupported schema {schema!r}; this reader handles "
            f"{', '.join(map(repr, schemas))}"
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


def read_common(doc: dict, dim: int) -> tuple[Normalizer | None, float | None]:
    """The fields every model file carries: (normalizer, train_positive_prior)
    for a model of dim features."""
    label = require(doc, "positive_label")
    if label != POSITIVE_LABEL:
        raise ModelFormatError(
            f"field 'positive_label' must be {POSITIVE_LABEL!r}, got {label!r}"
        )
    prior = doc.get("train_positive_prior")
    if prior is not None:
        prior = finite_scalar(prior, "train_positive_prior")
    raw = require(doc, "normalizer")
    if raw is None:
        return None, prior
    if not isinstance(raw, dict):
        raise ModelFormatError("field 'normalizer' must be an object or null")
    minimum = finite_vector(require(raw, "min"), "normalizer.min")
    maximum = finite_vector(require(raw, "max"), "normalizer.max")
    if minimum.shape != maximum.shape or minimum.shape[0] != dim:
        raise ModelMismatchError("normalizer arrays do not match model dimension")
    return Normalizer(minimum=minimum, maximum=maximum), prior
