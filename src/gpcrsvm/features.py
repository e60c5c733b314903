"""Fixed 24-dimensional feature vectors and dataset assembly.

Indices 0-19 hold amino acid composition fractions in alphabetical
one-letter order (A C D E F G H I K L M N P Q R S T V W Y); indices 20-23
hold the N-terminal and three extracellular loop lengths.
"""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelMismatchError
from .seqio import AMINO_ACIDS, Label, SequenceRecord
from .topology import RegionLengths, TopologyMap, extract_region_lengths, validate_gpcr_topology

FEATURE_NAMES = tuple(AMINO_ACIDS) + ("ntl", "ecl1", "ecl2", "ecl3")
N_FEATURES = len(FEATURE_NAMES)  # 24

# Exclusion reason codes added by dataset assembly (topology validation
# contributes its own codes on top of these).
NO_TOPOLOGY = "NO_TOPOLOGY"
EMPTY_REGION = "EMPTY_REGION"
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


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray  # shape (24,)
    label: Label
    source_id: str


def build_vector(record: SequenceRecord, regions: RegionLengths) -> FeatureVector:
    """Concatenate composition fractions with the four region lengths."""
    if record.label is None:
        raise ValueError(f"record '{record.id}' is unlabeled")
    values = np.concatenate(
        [composition(record.residues), np.array(regions.as_tuple(), dtype=float)]
    )
    return FeatureVector(values=values, label=record.label, source_id=record.id)


@dataclass(frozen=True)
class Normalizer:
    """Per-feature min-max scaling statistics fitted on training data only."""

    minimum: np.ndarray
    maximum: np.ndarray
    fitted_on: int


def fit_normalizer(vectors: list[FeatureVector]) -> Normalizer:
    if not vectors:
        raise ValueError("cannot fit a normalizer on an empty collection")
    matrix = np.stack([v.values for v in vectors])
    return Normalizer(
        minimum=matrix.min(axis=0), maximum=matrix.max(axis=0), fitted_on=len(vectors)
    )


def apply_normalizer(normalizer: Normalizer, values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]: (x - min) / (max - min), constant features to 0,
    out-of-range values (unseen data) clamped."""
    span = normalizer.maximum - normalizer.minimum
    scaled = np.where(
        span > 0, (values - normalizer.minimum) / np.where(span > 0, span, 1.0), 0.0
    )
    return np.clip(scaled, 0.0, 1.0)


def check_width(x: np.ndarray, dim: int) -> np.ndarray:
    """x (one row or an (n, d) batch) as floats; ModelMismatchError unless
    d equals the model's dim."""
    x = np.asarray(x, dtype=float)
    width = np.atleast_2d(x).shape[1]
    if width != dim:
        raise ModelMismatchError(f"input has {width} features, model expects {dim}")
    return x


def invert_normalizer(normalizer: Normalizer, scaled: np.ndarray) -> np.ndarray:
    """Map scaled values back to the original range (constant features
    recover their training value)."""
    span = normalizer.maximum - normalizer.minimum
    return scaled * span + normalizer.minimum


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
    vectors: list[FeatureVector]
    normalizer: Normalizer | None = None
    provenance: Provenance = field(default_factory=Provenance)

    def __len__(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        return np.stack([v.values for v in self.vectors])

    def signs(self) -> np.ndarray:
        return np.array([v.label.sign for v in self.vectors], dtype=float)

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(vectors=[self.vectors[i] for i in indices])

    def positive_fraction(self) -> float:
        if not self.vectors:
            raise ValueError("empty dataset has no class prior")
        return sum(1 for v in self.vectors if v.label is Label.HUMAN) / len(self)


def assemble_dataset(
    records: list[SequenceRecord], topologies: list[TopologyMap]
) -> Dataset:
    """Join labeled records to their topologies and build feature vectors.

    Records are excluded (with a provenance reason) when no topology
    matches their id, the topology fails 7TM validation, a required region
    is empty, or the sequence has no countable residues. Duplicate record
    ids are an error.
    """
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate sequence id '{rec.id}' in corpus")
        seen.add(rec.id)

    by_id = {t.sequence_id: t for t in topologies}
    prov = Provenance(ingested=len(records))
    vectors: list[FeatureVector] = []
    for rec in records:
        tmap = by_id.get(rec.id)
        if tmap is None:
            prov.exclude(NO_TOPOLOGY)
            continue
        ok, reason = validate_gpcr_topology(tmap)
        if not ok:
            prov.exclude(reason)
            continue
        regions = extract_region_lengths(tmap)
        if min(regions.as_tuple()) < 1:
            prov.exclude(EMPTY_REGION)
            continue
        try:
            vectors.append(build_vector(rec, regions))
        except CompositionError:
            prov.exclude(BAD_SEQUENCE)
            continue
    prov.retained = len(vectors)
    return Dataset(vectors=vectors, provenance=prov)


def write_feature_csv(vectors: list[FeatureVector], sink) -> None:
    """Feature table: header 'id,A,...,Y,ntl,ecl1,ecl2,ecl3,label', floats
    at full round-trip precision, labels as 'human'/'other'."""
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    handle = open(sink, "w", newline="") if own else sink
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("id",) + FEATURE_NAMES + ("label",))
        for vec in vectors:
            writer.writerow(
                [vec.source_id] + [repr(float(x)) for x in vec.values] + [vec.label.value]
            )
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
        vectors = []
        for row in reader:
            if not row:
                continue
            if len(row) != N_FEATURES + 2:
                raise ValueError(
                    f"feature table row for '{row[0]}' has {len(row)} fields, "
                    f"expected {N_FEATURES + 2}"
                )
            values = np.array([_float_or_nan(x) for x in row[1 : N_FEATURES + 1]])
            if not np.isfinite(values).all():
                j = int(np.argmin(np.isfinite(values)))
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
            vectors.append(FeatureVector(values=values, label=label, source_id=row[0]))
    finally:
        if own:
            handle.close()
    prov = Provenance(ingested=len(vectors), retained=len(vectors))
    return Dataset(vectors=vectors, provenance=prov)


def write_arff(vectors: list[FeatureVector], sink, relation: str = "gpcr") -> None:
    """Attribute-relation text export: 24 numeric attributes plus a
    two-value nominal class."""
    buf = io.StringIO()
    buf.write(f"@relation {relation}\n\n")
    for name in FEATURE_NAMES:
        buf.write(f"@attribute {name} numeric\n")
    buf.write("@attribute class {human,other}\n\n@data\n")
    for vec in vectors:
        buf.write(",".join(repr(float(x)) for x in vec.values))
        buf.write(f",{vec.label.value}\n")
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    if own:
        with open(sink, "w") as handle:
            handle.write(buf.getvalue())
    else:
        sink.write(buf.getvalue())
