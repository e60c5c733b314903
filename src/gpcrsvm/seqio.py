"""FASTA ingestion and binary species labeling for protein sequences."""

import enum
from dataclasses import dataclass, replace

# 20 standard residues plus 'X' for unknown. 'X' is accepted on ingest;
# downstream feature code decides whether a sequence is usable.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
ALPHABET = frozenset(AMINO_ACIDS + "X")


class Label(enum.Enum):
    """Binary species class. HUMAN is the positive class everywhere."""

    HUMAN = "human"
    OTHER = "other"

    @property
    def sign(self) -> int:
        return 1 if self is Label.HUMAN else -1

    @property
    def as01(self) -> int:
        return 1 if self is Label.HUMAN else 0


def labels_from_scores(scores):
    """Every classifier's decision rule: a score >= 0 (ties included) is
    HUMAN. One float gives one Label; a sequence of scores gives a list."""
    if isinstance(scores, float):
        return labels_from_scores([scores])[0]
    return [Label.HUMAN if s >= 0 else Label.OTHER for s in scores]


class FastaParseError(ValueError):
    """Malformed FASTA input; message names the offending line."""


@dataclass(frozen=True)
class SequenceRecord:
    id: str
    description: str
    residues: str
    label: Label | None = None

    @property
    def has_ambiguous(self) -> bool:
        return "X" in self.residues


def parse_fasta(text: str) -> list[SequenceRecord]:
    """Parse FASTA text into records, preserving file order.

    Header lines start with '>'; the id is the first whitespace-delimited
    token, the rest of the header is the description. Sequence lines are
    concatenated, uppercased, and stripped of whitespace. Characters outside
    the residue alphabet (20 standard residues plus 'X') raise
    FastaParseError with the line number.
    """
    records: list[SequenceRecord] = []
    header_line = 0
    current_id = None
    current_desc = ""
    chunks: list[str] = []

    def flush():
        if current_id is None:
            return
        residues = "".join(chunks)
        if not residues:
            raise FastaParseError(
                f"line {header_line}: header '{current_id}' has no sequence data"
            )
        records.append(SequenceRecord(current_id, current_desc, residues))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise FastaParseError(f"line {lineno}: empty FASTA header")
            parts = header.split(None, 1)
            current_id = parts[0]
            current_desc = parts[1] if len(parts) > 1 else ""
            header_line = lineno
            chunks = []
        else:
            if current_id is None:
                raise FastaParseError(
                    f"line {lineno}: sequence data before any '>' header"
                )
            seq = "".join(line.split()).upper()
            bad = set(seq) - ALPHABET
            if bad:
                raise FastaParseError(
                    f"line {lineno}: invalid residue character(s) "
                    f"{''.join(sorted(bad))!r} in sequence '{current_id}'"
                )
            chunks.append(seq)
    flush()
    return records


def format_fasta(records: list[SequenceRecord], width: int = 60) -> str:
    """Serialize records back to FASTA (inverse of parse_fasta)."""
    lines = []
    for rec in records:
        header = f">{rec.id} {rec.description}".rstrip()
        lines.append(header)
        for i in range(0, len(rec.residues), width):
            lines.append(rec.residues[i : i + width])
    return "\n".join(lines) + ("\n" if lines else "")


def species_token(record_id: str) -> str:
    """Final underscore-delimited token of a sequence id (entry-name style)."""
    return record_id.rsplit("_", 1)[-1]


def assign_labels(
    records: list[SequenceRecord],
    overrides: dict[str, Label] | None = None,
) -> tuple[list[SequenceRecord], int]:
    """Label every record: override map wins, else the '_HUMAN' suffix rule.

    Returns the labeled records (same order) and the number of override ids
    that matched no record (the caller decides whether to warn).
    """
    overrides = overrides or {}
    labeled = []
    for rec in records:
        if rec.id in overrides:
            label = overrides[rec.id]
        else:
            label = Label.HUMAN if species_token(rec.id) == "HUMAN" else Label.OTHER
        labeled.append(replace(rec, label=label))
    known = {rec.id for rec in records}
    return labeled, sum(1 for key in overrides if key not in known)


def parse_label_overrides(text: str) -> dict[str, Label]:
    """Parse an override file: one 'id<TAB>label' per line, '#' comments.

    Labels are 'human' or 'other' (case-insensitive).
    """
    overrides: dict[str, Label] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected 'id<TAB>label', got {line!r}"
            )
        rec_id, token = parts[0].strip(), parts[1].strip().lower()
        try:
            overrides[rec_id] = Label(token)
        except ValueError:
            raise ValueError(
                f"line {lineno}: label must be 'human' or 'other', got {token!r}"
            ) from None
    return overrides
