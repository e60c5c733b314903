import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcrsvm.features import (
    BAD_SEQUENCE,
    FEATURE_NAMES,
    NO_TOPOLOGY,
    CompositionError,
    Dataset,
    apply_normalizer,
    assemble_dataset,
    composition,
    feature_row,
    fit_normalizer,
    read_feature_csv,
    write_feature_csv,
)
from gpcrsvm import topology
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


# A record's feature vector is its feature_row; assemble_dataset files it
# under the record's id and label.


def test_build_vector_concatenates():
    row = feature_row(labeled("A1", "AAG"), RegionLengths(57, 12, 20, 9))
    assert row.shape == (24,)
    assert row[AMINO_ACIDS.index("A")] == 2 / 3
    assert row[AMINO_ACIDS.index("G")] == 1 / 3
    np.testing.assert_array_equal(row[20:], [57, 12, 20, 9])
    ds = assemble_dataset([labeled("A1", "ACDEF")], [seven_tm_map(seq_id="A1")])
    assert ds.labels == [Label.HUMAN]
    assert ds.ids == ("A1",)


def test_build_vector_boundary_regions():
    row = feature_row(labeled("A1", "AAG"), RegionLengths(1, 1, 1, 1))
    np.testing.assert_array_equal(row[20:], [1, 1, 1, 1])


def test_build_vector_propagates_composition_error():
    with pytest.raises(CompositionError):
        feature_row(labeled("A1", "XX"), RegionLengths(1, 1, 1, 1))


def test_build_vector_requires_label():
    rec = SequenceRecord("A1", "", "AAG", None)
    with pytest.raises(ValueError, match="unlabeled"):
        assemble_dataset([rec], [seven_tm_map(seq_id="A1")])


def rows(*values):
    return np.array(values, dtype=float)


def test_normalizer_midpoint():
    norm = fit_normalizer(rows([2.0] * 24, [4.0] * 24))
    out = apply_normalizer(norm, np.full(24, 3.0))
    np.testing.assert_array_equal(out, np.full(24, 0.5))


def test_normalizer_constant_feature_and_clamp():
    norm = fit_normalizer(rows([5.0] * 24, [5.0] * 24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 5.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 9.0)), np.zeros(24))


def test_normalizer_endpoints():
    norm = fit_normalizer(rows([2.0] * 24, [4.0] * 24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 2.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 4.0)), np.ones(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 1.0)), np.zeros(24))
    np.testing.assert_array_equal(apply_normalizer(norm, np.full(24, 9.0)), np.ones(24))


def test_normalizer_empty_error():
    with pytest.raises(ValueError):
        fit_normalizer(np.empty((0, 24)))


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
def test_normalizer_round_trip(table):
    X = np.array([r + [0.0] * 18 for r in table])
    norm = fit_normalizer(X)
    span = norm.maximum - norm.minimum
    nonconst = span > 0
    tolerance = 1e-12 * (1.0 + span + np.abs(norm.minimum))
    for x in X:
        scaled = apply_normalizer(norm, x)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
        recovered = scaled * span + norm.minimum
        errors = np.abs(recovered - x)
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


def test_assemble_dataset_validates_each_topology_once(monkeypatch):
    calls = Counter()
    validate = topology.validate_gpcr_topology

    def counting(tmap):
        calls[tmap.sequence_id] += 1
        return validate(tmap)

    monkeypatch.setattr(topology, "validate_gpcr_topology", counting)
    records = [labeled("A", "ACDEF"), labeled("B", "ACDEF"), labeled("C", "XXXX")]
    six_helix = build_map(SEVEN_TM_KINDS[:13], [10] * 13, seq_id="B")
    ds = assemble_dataset(
        records, [seven_tm_map(seq_id="A"), six_helix, seven_tm_map(seq_id="C")]
    )
    assert ds.ids == ("A",)
    assert ds.provenance.excluded == {WRONG_HELIX_COUNT: 1, BAD_SEQUENCE: 1}
    assert calls == {"A": 1, "B": 1, "C": 1}


def test_assemble_dataset_flags_bad_sequence():
    records = [labeled("A", "XXXX")]
    ds = assemble_dataset(records, [seven_tm_map(seq_id="A")])
    assert ds.provenance.excluded == {BAD_SEQUENCE: 1}


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
    as_set = lambda d: set(zip(d.ids, map(tuple, d.X), d.labels))
    assert as_set(ds) == as_set(shuffled)


def test_feature_csv_round_trip(tmp_path):
    X = np.stack([
        feature_row(labeled("A_HUMAN", "AAGWY"), RegionLengths(57, 12, 20, 9)),
        feature_row(labeled("B_BOVIN", "MKTV"), RegionLengths(3, 1, 4, 1)),
    ])
    path = tmp_path / "features.csv"
    write_feature_csv(Dataset(("A_HUMAN", "B_BOVIN"), X, np.array([1.0, -1.0])), path)
    header = path.read_text().splitlines()[0]
    assert header == "id," + ",".join(FEATURE_NAMES) + ",label"
    ds = read_feature_csv(path)
    assert ds.ids == ("A_HUMAN", "B_BOVIN")
    assert ds.labels == [Label.HUMAN, Label.OTHER]
    np.testing.assert_array_equal(ds.X, X)


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


def test_subset_and_positive_fraction_match_a_hand_count():
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    X = np.arange(7 * 24, dtype=float).reshape(7, 24)
    ds = Dataset(tuple(f"s{i}" for i in range(7)), X, y)
    assert len(ds) == 7
    assert ds.positive_fraction() == 3 / 7
    assert ds.labels[:2] == [Label.HUMAN, Label.OTHER]
    part = ds.subset([4, 1, 0])
    assert part.ids == ("s4", "s1", "s0")
    np.testing.assert_array_equal(part.X, X[[4, 1, 0]])
    assert part.labels == [Label.HUMAN, Label.OTHER, Label.HUMAN]
    assert part.positive_fraction() == 2 / 3
    assert len(ds.subset([])) == 0
    with pytest.raises(ValueError, match="no class prior"):
        ds.subset([]).positive_fraction()
