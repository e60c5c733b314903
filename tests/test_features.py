import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcrsvm import features
from gpcrsvm.features import (
    BAD_SEQUENCE,
    EMPTY_REGION,
    FEATURE_NAMES,
    NO_TOPOLOGY,
    CompositionError,
    FeatureVector,
    apply_normalizer,
    assemble_dataset,
    build_vector,
    composition,
    fit_normalizer,
    invert_normalizer,
    read_feature_csv,
    write_arff,
    write_feature_csv,
)
from gpcrsvm.seqio import AMINO_ACIDS, Label, SequenceRecord
from gpcrsvm.topology import WRONG_HELIX_COUNT, RegionLengths

from test_topology import SEVEN_TM_KINDS, build_map, seven_tm_map


def test_composition_simple():
    values = composition("AAG")
    expected = np.zeros(20)
    expected[AMINO_ACIDS.index("A")] = 2 / 3
    expected[AMINO_ACIDS.index("G")] = 1 / 3
    np.testing.assert_array_equal(values, expected)


def test_composition_uniform():
    np.testing.assert_array_equal(composition(AMINO_ACIDS), np.full(20, 0.05))


def test_composition_excludes_unknown_residues():
    values = composition("AXA")
    assert values[AMINO_ACIDS.index("A")] == 1.0
    assert values.sum() == 1.0


def test_composition_undefined():
    with pytest.raises(CompositionError):
        composition("")
    with pytest.raises(CompositionError):
        composition("XXX")


@given(st.text(st.sampled_from(AMINO_ACIDS + "X"), min_size=1, max_size=500))
def test_composition_matches_counting_oracle(residues):
    counted = Counter(c for c in residues if c != "X")
    total = sum(counted.values())
    if total == 0:
        with pytest.raises(CompositionError):
            composition(residues)
        return
    values = composition(residues)
    assert abs(values.sum() - 1.0) <= 1e-9
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    for i, aa in enumerate(AMINO_ACIDS):
        assert values[i] == counted.get(aa, 0) / total


def labeled(seq_id, residues, label=Label.HUMAN):
    return SequenceRecord(seq_id, "", residues, label)


def test_build_vector_concatenates():
    vec = build_vector(labeled("A1", "AAG"), RegionLengths(57, 12, 20, 9))
    assert vec.values.shape == (24,)
    assert vec.values[AMINO_ACIDS.index("A")] == 2 / 3
    assert vec.values[AMINO_ACIDS.index("G")] == 1 / 3
    np.testing.assert_array_equal(vec.values[20:], [57, 12, 20, 9])
    assert vec.label is Label.HUMAN
    assert vec.source_id == "A1"


def test_build_vector_boundary_regions():
    vec = build_vector(labeled("A1", "AAG"), RegionLengths(1, 1, 1, 1))
    np.testing.assert_array_equal(vec.values[20:], [1, 1, 1, 1])


def test_build_vector_propagates_composition_error():
    with pytest.raises(CompositionError):
        build_vector(labeled("A1", "XX"), RegionLengths(1, 1, 1, 1))


def test_build_vector_requires_label():
    rec = SequenceRecord("A1", "", "AAG", None)
    with pytest.raises(ValueError, match="unlabeled"):
        build_vector(rec, RegionLengths(1, 1, 1, 1))


def vec(values, label=Label.HUMAN, source_id="v"):
    return FeatureVector(np.asarray(values, dtype=float), label, source_id)


def test_normalizer_midpoint():
    norm = fit_normalizer([vec([2.0] * 24), vec([4.0] * 24)])
    out = apply_normalizer(norm, np.full(24, 3.0))
    np.testing.assert_array_equal(out, np.full(24, 0.5))


def test_normalizer_constant_feature_and_clamp():
    norm = fit_normalizer([vec([5.0] * 24), vec([5.0] * 24)])
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 5.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 9.0)), np.zeros(24))


def test_normalizer_endpoints():
    norm = fit_normalizer([vec([2.0] * 24), vec([4.0] * 24)])
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 2.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 4.0)), np.ones(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 1.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 9.0)), np.ones(24))


def test_normalizer_empty_error():
    with pytest.raises(ValueError):
        fit_normalizer([])


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=6,
            max_size=6,
        ),
        min_size=2,
        max_size=20,
    )
)
def test_normalizer_round_trip(rows):
    vectors = [vec(row) for row in [r + [0.0] * 18 for r in rows]]
    norm = fit_normalizer(vectors)
    span = norm.maximum - norm.minimum
    nonconst = span > 0
    tolerance = 1e-12 * (1.0 + span + np.abs(norm.minimum))
    for v in vectors:
        scaled = apply_normalizer(norm, v.values)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
        recovered = invert_normalizer(norm, scaled)
        errors = np.abs(recovered - v.values)
        assert np.all(errors[nonconst] <= tolerance[nonconst])


def test_assemble_dataset_filters_missing_topology():
    records = [labeled("A", "ACDEF"), labeled("B", "ACDEF"), labeled("C", "ACDEF")]
    topologies = [seven_tm_map(seq_id="A"), seven_tm_map(seq_id="B")]
    ds = assemble_dataset(records, topologies)
    assert len(ds) == 2
    assert ds.provenance.excluded == {NO_TOPOLOGY: 1}
    assert ds.provenance.ingested == 3
    assert ds.provenance.retained == 2


def test_assemble_dataset_empty():
    ds = assemble_dataset([], [])
    assert len(ds) == 0
    assert ds.provenance.ingested == 0
    assert ds.provenance.retained == 0
    assert ds.provenance.excluded == {}


def test_assemble_dataset_propagates_topology_reason():
    records = [labeled("A", "ACDEF")]
    six_helix = build_map(SEVEN_TM_KINDS[:13], [10] * 13, seq_id="A")
    ds = assemble_dataset(records, [six_helix])
    assert len(ds) == 0
    assert ds.provenance.excluded == {WRONG_HELIX_COUNT: 1}


def test_assemble_dataset_flags_bad_sequence():
    records = [labeled("A", "XXXX")]
    ds = assemble_dataset(records, [seven_tm_map(seq_id="A")])
    assert ds.provenance.excluded == {BAD_SEQUENCE: 1}


def test_assemble_dataset_flags_empty_region(monkeypatch):
    # A tiled topology cannot produce a zero-length region, so fake one.
    monkeypatch.setattr(
        features, "extract_region_lengths", lambda tmap: RegionLengths(0, 1, 1, 1)
    )
    records = [labeled("A", "ACDEF")]
    ds = assemble_dataset(records, [seven_tm_map(seq_id="A")])
    assert ds.provenance.excluded == {EMPTY_REGION: 1}


def test_assemble_dataset_rejects_duplicate_ids():
    records = [labeled("A", "ACDEF"), labeled("A", "GHIKL")]
    with pytest.raises(ValueError, match="duplicate"):
        assemble_dataset(records, [seven_tm_map(seq_id="A")])


def test_assemble_dataset_accounting_and_order_independence():
    records = [labeled(f"R{i}", "ACDEFGHIKL") for i in range(6)]
    topologies = [seven_tm_map(seq_id=f"R{i}") for i in range(4)]
    ds = assemble_dataset(records, topologies)
    prov = ds.provenance
    assert prov.retained + prov.total_excluded == prov.ingested
    shuffled = assemble_dataset(list(reversed(records)), list(reversed(topologies)))
    as_set = lambda d: {
        (v.source_id, tuple(v.values), v.label) for v in d.vectors
    }
    assert as_set(ds) == as_set(shuffled)


def test_feature_csv_round_trip(tmp_path):
    vectors = [
        build_vector(labeled("A_HUMAN", "AAGWY"), RegionLengths(57, 12, 20, 9)),
        build_vector(
            labeled("B_BOVIN", "MKTV", Label.OTHER), RegionLengths(3, 1, 4, 1)
        ),
    ]
    path = tmp_path / "features.csv"
    write_feature_csv(vectors, path)
    header = path.read_text().splitlines()[0]
    assert header == "id," + ",".join(FEATURE_NAMES) + ",label"
    ds = read_feature_csv(path)
    assert [v.source_id for v in ds.vectors] == ["A_HUMAN", "B_BOVIN"]
    assert [v.label for v in ds.vectors] == [Label.HUMAN, Label.OTHER]
    for original, loaded in zip(vectors, ds.vectors):
        np.testing.assert_array_equal(original.values, loaded.values)


def test_feature_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_feature_csv(io.StringIO("id,foo,label\nA,1,human\n"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
def test_feature_csv_rejects_non_finite_cell(cell):
    header = "id," + ",".join(FEATURE_NAMES) + ",label\n"
    values = ["0.5"] * len(FEATURE_NAMES)
    values[FEATURE_NAMES.index("ecl2")] = cell
    row = "B_BOVIN," + ",".join(values) + ",other\n"
    with pytest.raises(ValueError, match=r"row 'B_BOVIN' column 'ecl2'"):
        read_feature_csv(io.StringIO(header + row))


def test_feature_csv_rejects_unknown_label():
    header = "id," + ",".join(FEATURE_NAMES) + ",label\n"
    row = "B_BOVIN," + ",".join(["0.5"] * len(FEATURE_NAMES)) + ",frog\n"
    with pytest.raises(
        ValueError, match=r"row 'B_BOVIN' column 'label': 'frog' is not one of human, other"
    ):
        read_feature_csv(io.StringIO(header + row))


def test_arff_export():
    vectors = [build_vector(labeled("A", "AAG"), RegionLengths(5, 6, 7, 8))]
    buf = io.StringIO()
    write_arff(vectors, buf)
    text = buf.getvalue()
    assert text.startswith("@relation gpcr")
    assert text.count(" numeric\n") == 24
    assert "@attribute class {human,other}" in text
    assert text.rstrip().endswith(",human")
