"""TMHMM-format topology parsing and extracellular region extraction.

The predictor itself is not reimplemented; topology arrives as a file in
TMHMM long format and is reduced to the four extracellular region lengths
(N-terminal region plus three loops) used as classifier features.
"""

import enum
import re
from dataclasses import dataclass

# Reason codes for sequences whose topology is not a usable 7TM receptor.
WRONG_HELIX_COUNT = "WRONG_HELIX_COUNT"
NTERM_NOT_OUTSIDE = "NTERM_NOT_OUTSIDE"
CTERM_NOT_INSIDE = "CTERM_NOT_INSIDE"
NON_ALTERNATING = "NON_ALTERNATING"


class SegmentKind(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    TMHELIX = "TMhelix"


class TopologyParseError(ValueError):
    """Malformed TMHMM input; message names the sequence id and line."""


class InvalidTopologyError(ValueError):
    """A map that fails validate_gpcr_topology; `reason` is the rule's code."""

    def __init__(self, sequence_id: str, reason: str):
        super().__init__(
            f"sequence '{sequence_id}' is not a valid 7TM topology "
            f"({reason}); cannot extract region lengths"
        )
        self.reason = reason


@dataclass(frozen=True)
class TopologySegment:
    kind: SegmentKind
    start: int  # 1-based, inclusive
    end: int  # 1-based, inclusive

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class TopologyMap:
    sequence_id: str
    length: int
    segments: tuple[TopologySegment, ...]


@dataclass(frozen=True)
class RegionLengths:
    """Residue counts of the four extracellular regions, N- to C-terminal.

    Every length is at least 1: parse_topology rejects a segment whose
    start lies past its end, and a region is one whole segment.
    """

    ntl: int
    ecl1: int
    ecl2: int
    ecl3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.ntl, self.ecl1, self.ecl2, self.ecl3)


_LENGTH_RE = re.compile(r"^#\s*(\S+)\s+Length:\s*(\d+)")


def parse_topology(text: str) -> list[TopologyMap]:
    """Parse TMHMM long-format output into one TopologyMap per sequence id.

    Data lines carry five whitespace-separated fields:
    ``<id> <method> <kind> <start> <end>`` with kind one of inside, outside,
    TMhelix. ``# <id> Length: <n>`` comments set the sequence length;
    otherwise the last segment's end is used. Segments must tile
    [1, length] with no gaps, overlaps, or repeated consecutive kinds.
    """
    declared_lengths: dict[str, int] = {}
    segments: dict[str, list[TopologySegment]] = {}
    last_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _LENGTH_RE.match(line)
            if m:
                declared_lengths[m.group(1)] = int(m.group(2))
            continue
        fields = line.split()
        if len(fields) != 5:
            raise TopologyParseError(
                f"line {lineno}: expected 5 fields '<id> <method> <kind> "
                f"<start> <end>', got {len(fields)}"
            )
        seq_id, _method, kind_token, start_token, end_token = fields
        try:
            kind = SegmentKind(kind_token)
        except ValueError:
            raise TopologyParseError(
                f"line {lineno}: unknown segment kind {kind_token!r} "
                f"for sequence '{seq_id}'"
            ) from None
        try:
            start, end = int(start_token), int(end_token)
        except ValueError:
            raise TopologyParseError(
                f"line {lineno}: non-numeric segment bounds "
                f"{start_token!r}..{end_token!r} for sequence '{seq_id}'"
            ) from None
        if start > end:
            raise TopologyParseError(
                f"line {lineno}: segment start {start} > end {end} "
                f"for sequence '{seq_id}'"
            )
        seg = TopologySegment(kind, start, end)
        segs = segments.setdefault(seq_id, [])
        if segs:
            prev = segs[-1]
            if seg.start != prev.end + 1:
                raise TopologyParseError(
                    f"line {lineno}: sequence '{seq_id}' segments do not "
                    f"tile: previous ends at {prev.end}, next starts at "
                    f"{seg.start}"
                )
            if seg.kind is prev.kind:
                raise TopologyParseError(
                    f"line {lineno}: sequence '{seq_id}' has two consecutive "
                    f"'{seg.kind.value}' segments"
                )
        elif seg.start != 1:
            raise TopologyParseError(
                f"line {lineno}: sequence '{seq_id}' first segment starts "
                f"at {seg.start}, expected 1"
            )
        segs.append(seg)
        last_line[seq_id] = lineno

    maps = []
    for seq_id, segs in segments.items():
        length = declared_lengths.get(seq_id, segs[-1].end)
        if segs[-1].end != length:
            raise TopologyParseError(
                f"line {last_line[seq_id]}: sequence '{seq_id}' segments end "
                f"at {segs[-1].end} but declared length is {length}"
            )
        maps.append(TopologyMap(seq_id, length, tuple(segs)))
    return maps


def format_topology(maps: list[TopologyMap], method: str = "TMHMM2.0") -> str:
    """Serialize TopologyMaps back to TMHMM long format."""
    lines = []
    for tmap in maps:
        lines.append(f"# {tmap.sequence_id} Length: {tmap.length}")
        for seg in tmap.segments:
            lines.append(
                f"{tmap.sequence_id}\t{method}\t{seg.kind.value}"
                f"\t{seg.start}\t{seg.end}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def validate_gpcr_topology(tmap: TopologyMap) -> tuple[bool, str | None]:
    """Check the canonical 7TM receptor pattern.

    Requires exactly 7 TM helices, an extracellular N-terminus, a
    cytoplasmic C-terminus, and strictly alternating inside/outside regions
    between helices. Returns (True, None) or (False, reason code); failing
    rules are reported in that fixed order.
    """
    helices = sum(1 for s in tmap.segments if s.kind is SegmentKind.TMHELIX)
    if helices != 7:
        return False, WRONG_HELIX_COUNT
    if tmap.segments[0].kind is not SegmentKind.OUTSIDE:
        return False, NTERM_NOT_OUTSIDE
    if tmap.segments[-1].kind is not SegmentKind.INSIDE:
        return False, CTERM_NOT_INSIDE
    loops = [s for s in tmap.segments if s.kind is not SegmentKind.TMHELIX]
    for prev, nxt in zip(loops, loops[1:]):
        if prev.kind is nxt.kind:
            return False, NON_ALTERNATING
    return True, None


def extract_region_lengths(tmap: TopologyMap) -> RegionLengths:
    """Lengths of the four OUTSIDE segments: N-terminal region, then the
    loops after helices 2, 4, and 6.

    Intracellular segments and the C-terminal tail carry no class signal
    here and are dropped. Raises InvalidTopologyError if validate_gpcr_topology fails.
    """
    ok, reason = validate_gpcr_topology(tmap)
    if not ok:
        raise InvalidTopologyError(tmap.sequence_id, reason)
    outside = [len(s) for s in tmap.segments if s.kind is SegmentKind.OUTSIDE]
    return RegionLengths(*outside[:4])
