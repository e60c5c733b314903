"""Benchmark input corpora, written as the FASTA + TMHMM files the CLI reads.

Two generators:

* ``separable`` is the repository's own ``synthetic.make_corpus``: near
  disjoint residue distributions; 10-fold CV misclassifies at most a few
  of 224 sequences.
* ``overlapping`` draws both classes from the same uniform residue
  distribution and the same region-length ranges, then pulls them apart by
  ``1 - overlap``: human sequences lean towards the first ten residues of
  the alphabet and short extracellular regions, the others towards the last
  ten and longer regions. ``overlap=1`` makes the classes identical,
  ``overlap=0`` gives a residue tilt of ``_MAX_TILT`` and a region shift of
  ``_MAX_SHIFT`` residues.

Both are deterministic functions of their seed, and every record carries a
canonical 7TM topology, so extraction must retain all of them.
"""

import random
from dataclasses import dataclass
from pathlib import Path

from gpcrsvm import seqio, synthetic, topology
from gpcrsvm.seqio import AMINO_ACIDS, SequenceRecord
from gpcrsvm.topology import SegmentKind, TopologyMap, TopologySegment

FASTA_NAME = "corpus.fasta"
TOPOLOGY_NAME = "corpus.tmhmm"

_MAX_TILT = 0.6  # relative weight change of each residue at overlap 0
_MAX_SHIFT = 20  # N-terminal length shift at overlap 0; loops shift by half


@dataclass(frozen=True)
class Corpus:
    records: list[SequenceRecord]  # unlabeled; the id suffix names the species
    topologies: list[TopologyMap]

    def truth(self) -> dict[str, tuple[str, tuple[int, ...]]]:
        """Per id, in order: the label the '_HUMAN' suffix rule gives and
        the four extracellular region lengths of its topology."""
        regions = {
            t.sequence_id: tuple(
                len(s) for s in t.segments if s.kind is SegmentKind.OUTSIDE
            )[:4]
            for t in self.topologies
        }
        return {
            r.id: ("human" if seqio.species_token(r.id) == "HUMAN" else "other",
                   regions[r.id])
            for r in self.records
        }


def separable(n: int, seed: int) -> Corpus:
    made = synthetic.make_corpus(n_sequences=n, seed=seed)
    return Corpus(records=made.records, topologies=made.topologies)


def _residue_weights(human: bool, tilt: float) -> list[float]:
    heavy = [(1.0 + tilt) / 20] * 10
    light = [(1.0 - tilt) / 20] * 10
    return heavy + light if human else light + heavy


def _topology(rng: random.Random, seq_id: str, shift: int) -> TopologyMap:
    lengths = [rng.randint(30, 60) + shift]  # N-terminal region
    for i in range(7):
        lengths.append(rng.randint(19, 25))  # TM helix
        if i < 6:
            lengths.append(rng.randint(8, 20) + shift // 2)
    lengths.append(rng.randint(10, 30))  # cytoplasmic C-terminal tail
    kinds = [SegmentKind.OUTSIDE]
    for i in range(7):
        kinds.append(SegmentKind.TMHELIX)
        kinds.append(SegmentKind.INSIDE if i % 2 == 0 else SegmentKind.OUTSIDE)
    segments = []
    start = 1
    for kind, length in zip(kinds, lengths):
        segments.append(TopologySegment(kind, start, start + length - 1))
        start += length
    return TopologyMap(seq_id, start - 1, tuple(segments))


def overlapping(n: int, seed: int, overlap: float) -> Corpus:
    """n records, alternating human and other, with class overlap in [0, 1]."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    rng = random.Random(seed)
    separation = 1.0 - overlap
    tilt = separation * _MAX_TILT
    shift = round(separation * _MAX_SHIFT)
    records, topologies = [], []
    for i in range(n):
        human = i % 2 == 0
        species = "HUMAN" if human else rng.choice(synthetic.OTHER_SPECIES)
        seq_id = f"OVL{i:05d}_{species}"
        tmap = _topology(rng, seq_id, 0 if human else shift)
        residues = "".join(
            rng.choices(AMINO_ACIDS, weights=_residue_weights(human, tilt), k=tmap.length)
        )
        records.append(SequenceRecord(seq_id, f"benchmark {species.lower()} receptor", residues))
        topologies.append(tmap)
    return Corpus(records=records, topologies=topologies)


def write(corpus: Corpus, directory: Path) -> None:
    """Write the corpus through the public serializers."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / FASTA_NAME).write_text(seqio.format_fasta(corpus.records))
    (directory / TOPOLOGY_NAME).write_text(topology.format_topology(corpus.topologies))
