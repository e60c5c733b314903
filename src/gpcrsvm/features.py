"""The 24 features of a sequence, datasets of them, and their scaling.

Indices 0-19 hold amino acid composition fractions in alphabetical
one-letter order (A C D E F G H I K L M N P Q R S T V W Y); indices 20-23
hold the N-terminal and three extracellular loop lengths.

A Dataset holds its rows as arrays: sequence ids, an (n, 24) matrix X and
a vector y of +1.0 (human) / -1.0 (other). Both models train on
`scaled_training_matrix`, which fits the min-max normalizer on X and scales
it, and both score raw rows that pass `check_width`.
"""

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, ModelMismatchError
from .seqio import AMINO_ACIDS, Label, SequenceRecord
from .topology import InvalidTopologyError, RegionLengths, TopologyMap, extract_region_lengths

FEATURE_NAMES = tuple(AMINO_ACIDS) + ("ntl", "ecl1", "ecl2", "ecl3")
N_FEATURES = len(FEATURE_NAMES)  # 24

# Exclusion reason codes added by dataset assembly (topology validation
# contributes its own codes on top of these).
NO_TOPOLOGY = "NO_TOPOLOGY"
BAD_SEQUENCE = "BAD_SEQUENCE"


class CompositionError(ValueError):
    """Sequence has no countable residues (empty or all-'X')."""


def composition(residues: str) -> np.ndarray:
    """Per-residue-type fractions of a sequence, as a 20-vector.

    'X' residues are excluded from both numerator and denominator.
    """
    counts = Counter(residues)
    total = len(residues) - counts.get("X", 0)
    if total == 0:
        raise CompositionError(
            "composition undefined: sequence has no countable residues"
        )
    return np.array([counts.get(aa, 0) / total for aa in AMINO_ACIDS])


def feature_row(record: SequenceRecord, regions: RegionLengths) -> np.ndarray:
    """Concatenate composition fractions with the four region lengths."""
    return np.concatenate(
        [composition(record.residues), np.array(regions.as_tuple(), dtype=float)]
    )


@dataclass(frozen=True)
class Normalizer:
    """Per-feature min-max scaling statistics fitted on training data only."""

    minimum: np.ndarray
    maximum: np.ndarray


def fit_normalizer(X: np.ndarray) -> Normalizer:
    """Column minima and maxima of a non-empty (n, d) matrix."""
    if len(X) == 0:
        raise ValueError("cannot fit a normalizer on an empty collection")
    return Normalizer(minimum=X.min(axis=0), maximum=X.max(axis=0))


def apply_normalizer(normalizer: Normalizer, values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]: (x - min) / (max - min), constant features to 0,
    out-of-range values (unseen data) clamped."""
    span = normalizer.maximum - normalizer.minimum
    scaled = np.where(
        span > 0, (values - normalizer.minimum) / np.where(span > 0, span, 1.0), 0.0
    )
    return np.clip(scaled, 0.0, 1.0)


def check_width(x: np.ndarray, dim: int) -> np.ndarray:
    """x (one row or an (n, d) batch) as floats. ModelMismatchError unless
    d equals the model's dim; ValueError naming the first row that holds a
    nan or an infinity."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    if rows.shape[1] != dim:
        raise ModelMismatchError(f"input has {rows.shape[1]} features, model expects {dim}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"input row {int(finite.argmin())} is not finite")
    return x


@dataclass
class Provenance:
    ingested: int = 0
    retained: int = 0
    excluded: dict[str, int] = field(default_factory=dict)

    def exclude(self, reason: str) -> None:
        self.excluded[reason] = self.excluded.get(reason, 0) + 1

    @property
    def total_excluded(self) -> int:
        return sum(self.excluded.values())


@dataclass
class Dataset:
    """Labeled feature rows: ids[i] names row X[i], whose sign is y[i]."""

    ids: tuple[str, ...]
    X: np.ndarray  # (n, 24) raw features
    y: np.ndarray  # (n,) +1.0 human, -1.0 other
    provenance: Provenance = field(default_factory=Provenance)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def labels(self) -> list[Label]:
        return [Label.HUMAN if s > 0 else Label.OTHER for s in self.y]

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(tuple(self.ids[i] for i in indices), self.X[indices], self.y[indices])

    def positive_fraction(self) -> float:
        if not len(self):
            raise ValueError("empty dataset has no class prior")
        return int((self.y > 0).sum()) / len(self)


def _dataset(ids: list[str], rows: list, signs: list[int], prov: Provenance) -> Dataset:
    X = np.array(rows, dtype=float).reshape(len(ids), N_FEATURES)
    return Dataset(tuple(ids), X, np.array(signs, dtype=float), prov)


def scaled_training_matrix(
    dataset: Dataset, normalize: str
) -> tuple[np.ndarray, Normalizer | None]:
    """The training matrix of either model and the normalizer that scaled
    it: mode 'minmax' fits one on the dataset, 'none' keeps raw rows."""
    if normalize not in ("minmax", "none"):
        raise ValueError(f"unknown normalization mode {normalize!r}")
    if not len(dataset):
        raise DegenerateDataError("cannot train on an empty dataset")
    if normalize == "none":
        return dataset.X, None
    normalizer = fit_normalizer(dataset.X)
    return apply_normalizer(normalizer, dataset.X), normalizer


def assemble_dataset(
    records: list[SequenceRecord], topologies: list[TopologyMap]
) -> Dataset:
    """Join labeled records to their topologies and build feature rows.

    Records are excluded (with a provenance reason) when no topology
    matches their id, the topology fails 7TM validation, or the sequence
    has no countable residues. Duplicate record ids and a retained record
    without a label are errors.
    """
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate sequence id '{rec.id}' in corpus")
        seen.add(rec.id)

    by_id = {t.sequence_id: t for t in topologies}
    prov = Provenance(ingested=len(records))
    ids, rows, signs = [], [], []
    for rec in records:
        tmap = by_id.get(rec.id)
        if tmap is None:
            prov.exclude(NO_TOPOLOGY)
            continue
        try:
            regions = extract_region_lengths(tmap)  # validates the map once
        except InvalidTopologyError as exc:
            prov.exclude(exc.reason)
            continue
        if rec.label is None:
            raise ValueError(f"record '{rec.id}' is unlabeled")
        try:
            rows.append(feature_row(rec, regions))
        except CompositionError:
            prov.exclude(BAD_SEQUENCE)
            continue
        ids.append(rec.id)
        signs.append(rec.label.sign)
    prov.retained = len(ids)
    return _dataset(ids, rows, signs, prov)


def write_feature_csv(dataset: Dataset, sink) -> None:
    """Feature table: header 'id,A,...,Y,ntl,ecl1,ecl2,ecl3,label', floats
    at full round-trip precision, labels as 'human'/'other'."""
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    handle = open(sink, "w", newline="") if own else sink
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("id",) + FEATURE_NAMES + ("label",))
        for seq_id, row, label in zip(dataset.ids, dataset.X, dataset.labels):
            writer.writerow([seq_id] + [repr(x) for x in row.tolist()] + [label.value])
    finally:
        if own:
            handle.close()


def _float_or_nan(cell: str) -> float:
    """A cell's number, or nan (reported as not finite) if it is none."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_feature_csv(source) -> Dataset:
    """Read a feature table written by write_feature_csv. Every feature
    cell must be a finite number."""
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    handle = open(source, "r", newline="") if own else source
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ("id",) + FEATURE_NAMES + ("label",)
        if header is None or tuple(header) != expected:
            raise ValueError(
                f"bad feature table header: expected {','.join(expected)}"
            )
        ids, rows, signs = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != N_FEATURES + 2:
                raise ValueError(
                    f"feature table row for '{row[0]}' has {len(row)} fields, "
                    f"expected {N_FEATURES + 2}"
                )
            values = [_float_or_nan(x) for x in row[1 : N_FEATURES + 1]]
            if not all(map(math.isfinite, values)):
                j = next(j for j, v in enumerate(values) if not math.isfinite(v))
                raise ValueError(
                    f"feature table row '{row[0]}' column '{FEATURE_NAMES[j]}': "
                    f"{row[1 + j]!r} is not a finite number"
                )
            try:
                label = Label(row[-1])
            except ValueError:
                raise ValueError(
                    f"feature table row '{row[0]}' column 'label': {row[-1]!r} "
                    f"is not one of {', '.join(lab.value for lab in Label)}"
                ) from None
            ids.append(row[0])
            rows.append(np.array(values))  # a list of floats holds 3x the memory
            signs.append(label.sign)
    finally:
        if own:
            handle.close()
    return _dataset(ids, rows, signs, Provenance(ingested=len(ids), retained=len(ids)))
