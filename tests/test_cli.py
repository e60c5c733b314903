import json

import pytest

from gpcrsvm import features, seqio, synthetic, topology
from gpcrsvm.cli import main
from gpcrsvm.seqio import Label


@pytest.fixture()
def corpus(tmp_path):
    made = synthetic.make_corpus(n_sequences=30, seed=7)
    fasta = tmp_path / "corpus.fasta"
    topo = tmp_path / "corpus.tmhmm"
    fasta.write_text(seqio.format_fasta(made.records))
    topo.write_text(topology.format_topology(made.topologies))
    return tmp_path


@pytest.fixture()
def feature_csv(corpus):
    out = corpus / "features.csv"
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "corpus.tmhmm"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_extract_features_writes_table(corpus, feature_csv, capsys):
    text = feature_csv.read_text()
    header = text.splitlines()[0]
    assert header.startswith("id,A,C,D") and header.endswith("ecl3,label")
    assert len(text.splitlines()) == 31  # header + 30 rows
    ds = features.read_feature_csv(feature_csv)
    assert sum(1 for label in ds.labels if label is Label.HUMAN) == 15


def test_extract_features_reports_provenance(corpus, capsys):
    out = corpus / "f.csv"
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "corpus.tmhmm"),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "ingested 30  retained 30  excluded 0" in captured


def test_extract_features_honors_label_overrides(corpus, capsys):
    labels = corpus / "labels.tsv"
    labels.write_text("# overrides\nSYN0000_HUMAN\tother\nGHOST\thuman\n")
    out = corpus / "flipped.csv"
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "corpus.tmhmm"),
            "--labels", str(labels),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr().err
    assert rc == 0
    assert "warning: 1 override id(s) matched no sequence" in captured
    ds = features.read_feature_csv(out)
    by_id = dict(zip(ds.ids, ds.labels))
    assert by_id["SYN0000_HUMAN"] is Label.OTHER


def test_extract_features_missing_file_exits_2(corpus):
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "nope.tmhmm"),
            "--out", str(corpus / "f.csv"),
        ]
    )
    assert rc == 2


def test_extract_features_empty_result_exits_3(corpus):
    empty_topo = corpus / "empty.tmhmm"
    empty_topo.write_text("")
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(empty_topo),
            "--out", str(corpus / "f.csv"),
        ]
    )
    assert rc == 3
    assert not (corpus / "f.csv").exists()


def test_train_writes_model_and_reports(feature_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = main(
        ["train", "--features", str(feature_csv), "--model", str(model_path)]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert model_path.exists()
    assert "support vectors:" in captured
    assert "training accuracy: 100.0000 %" in captured  # separable corpus
    doc = json.loads(model_path.read_text())
    assert doc["schema"] == "gpcr-svm/1"
    assert doc["gamma"] == 10.0 and doc["c"] == 1.0


def test_commands_do_not_mutate_inputs(corpus, feature_csv, tmp_path):
    fasta = corpus / "corpus.fasta"
    topo = corpus / "corpus.tmhmm"
    before = (fasta.read_bytes(), topo.read_bytes(), feature_csv.read_bytes())
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv), "--model", str(model_path)]) == 0
    assert main(["evaluate", "--features", str(feature_csv), "--cv", "3"]) == 0
    after = (fasta.read_bytes(), topo.read_bytes(), feature_csv.read_bytes())
    assert before == after


def test_train_defaults_match_explicit_flags(feature_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["train", "--features", str(feature_csv), "--model", str(a)]) == 0
    assert main(
        [
            "train", "--features", str(feature_csv), "--model", str(b),
            "--gamma", "10", "--c", "1.0",
        ]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_nonpositive_c(feature_csv, tmp_path):
    rc = main(
        [
            "train", "--features", str(feature_csv),
            "--model", str(tmp_path / "m.json"), "--c", "0",
        ]
    )
    assert rc == 1


def test_train_single_class_exits_4(tmp_path):
    made = synthetic.make_corpus(n_sequences=10, seed=3, human_fraction=1.0)
    labeled, _ = seqio.assign_labels(made.records)
    ds = features.assemble_dataset(labeled, made.topologies)
    csv_path = tmp_path / "single.csv"
    features.write_feature_csv(ds, csv_path)
    rc = main(
        ["train", "--features", str(csv_path), "--model", str(tmp_path / "m.json")]
    )
    assert rc == 4


def test_evaluate_model_on_features(feature_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--features", str(feature_csv), "--model", str(model_path)])
    capsys.readouterr()
    rc = main(
        ["evaluate", "--model", str(model_path), "--features", str(feature_csv)]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "Kappa statistic" in captured
    assert "Total Number of Instances" in captured


def test_evaluate_json_format(feature_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--features", str(feature_csv), "--model", str(model_path)])
    capsys.readouterr()
    rc = main(
        [
            "evaluate", "--model", str(model_path),
            "--features", str(feature_csv), "--format", "json",
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(captured)
    assert set(doc["matrix"]) == {"tp", "fp", "fn", "tn"}


def test_evaluate_cv_is_byte_reproducible(feature_csv, tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "evaluate", "--features", str(feature_csv),
        "--cv", "5", "--seed", "42",
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    text_a = capsys.readouterr().out
    assert main(args + ["--out", str(out_b)]) == 0
    text_b = capsys.readouterr().out
    assert text_a == text_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_evaluate_holdout_mode(feature_csv, capsys):
    rc = main(
        [
            "evaluate", "--features", str(feature_csv),
            "--holdout", "20", "--seed", "1",
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "Total Number of Instances 10" in " ".join(captured.split())


def test_evaluate_baseline_nb(feature_csv, capsys):
    rc = main(
        [
            "evaluate", "--features", str(feature_csv),
            "--cv", "5", "--baseline", "nb",
        ]
    )
    assert rc == 0
    assert "Kappa statistic" in capsys.readouterr().out


def test_evaluate_rejects_cv_holdout_combination(feature_csv):
    rc = main(
        [
            "evaluate", "--features", str(feature_csv),
            "--cv", "5", "--holdout", "10",
        ]
    )
    assert rc == 1


def test_evaluate_prints_reference_block(tmp_path, capsys):
    # Hand-built model: f(x) = exp(-||x||^2) - 0.5, so rows inside the unit
    # blob are called human. 36 rows arranged to score tp=14 fp=2 fn=0 tn=20.
    import numpy as np

    from gpcrsvm.features import Dataset, write_feature_csv

    model_path = tmp_path / "ref_model.json"
    model_path.write_text(
        json.dumps(
            {
                "schema": "gpcr-svm/1",
                "gamma": 1.0,
                "c": 1.0,
                "bias": -0.5,
                "positive_label": "human",
                "normalizer": None,
                "support_vectors": [[0.0] * 24],
                "dual_coeffs": [1.0],
                "train_positive_prior": 90 / 188,
            }
        )
    )
    near = [0.0] * 24
    far = [3.0] * 24
    ids = (
        [f"tp{i}" for i in range(14)] + [f"fp{i}" for i in range(2)]
        + [f"tn{i}" for i in range(20)]
    )
    X = np.array([near] * 16 + [far] * 20)
    y = np.array([1.0] * 14 + [-1.0] * 22)
    csv_path = tmp_path / "ref.csv"
    write_feature_csv(Dataset(tuple(ids), X, y), csv_path)
    rc = main(["evaluate", "--model", str(model_path), "--features", str(csv_path)])
    captured = " ".join(capsys.readouterr().out.split())
    assert rc == 0
    assert "Kappa statistic 0.8861" in captured
    assert "94.4444" in captured
    assert "Relative absolute error 11.2172 %" in captured


def test_evaluate_dimension_mismatch_exits_5(feature_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema": "gpcr-svm/1", "gamma": 1.0, "c": 1.0, "bias": 0.0,'
        ' "positive_label": "human", "normalizer": null,'
        ' "support_vectors": [[0.0, 0.0, 0.0, 0.0]], "dual_coeffs": [1.0]}'
    )
    rc = main(["evaluate", "--model", str(bad), "--features", str(feature_csv)])
    assert rc == 5


def trained_model_doc(feature_csv, tmp_path, extra):
    """Train a model on the feature table; return its path and parsed JSON."""
    path = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv), "--model", str(path),
                 *extra]) == 0
    return path, json.loads(path.read_text())


def test_nb_model_missing_priors_names_the_field(feature_csv, tmp_path, capsys):
    path, doc = trained_model_doc(feature_csv, tmp_path, ["--baseline", "nb"])
    del doc["priors"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--features", str(feature_csv)])
    assert rc == 2
    assert "error: missing field 'priors'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--baseline", "nb"]], ids=["svm", "nb"])
def test_model_with_other_positive_label_is_rejected(
    feature_csv, tmp_path, capsys, extra
):
    path, doc = trained_model_doc(feature_csv, tmp_path, extra)
    assert doc["positive_label"] == "human"
    doc["positive_label"] = "other"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--features", str(feature_csv)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "field 'positive_label' must be 'human'" in captured.err


def test_unknown_schema_names_every_accepted_schema(feature_csv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "gpcr-rf/1"}')
    rc = main(["evaluate", "--model", str(bad), "--features", str(feature_csv)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unsupported schema 'gpcr-rf/1'" in err
    assert "'gpcr-svm/1'" in err and "'gpcr-nb/1'" in err


def test_train_from_raw_files_warns_about_unmatched_overrides(corpus, tmp_path, capsys):
    labels = corpus / "labels.tsv"
    labels.write_text("GHOST\thuman\n")
    rc = main(
        [
            "train",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "corpus.tmhmm"),
            "--labels", str(labels),
            "--model", str(tmp_path / "model.json"),
        ]
    )
    assert rc == 0
    assert "warning: 1 override id(s) matched no sequence" in capsys.readouterr().err


def test_predict_from_raw_files_keeps_the_override_warning_off_stdout(
    corpus, tmp_path, capsys
):
    labels = corpus / "labels.tsv"
    labels.write_text("GHOST\thuman\n")
    raw = ["--fasta", str(corpus / "corpus.fasta"),
           "--topology", str(corpus / "corpus.tmhmm"), "--labels", str(labels)]
    model = ["--model", str(tmp_path / "model.json")]
    assert main(["train", *raw, *model]) == 0
    capsys.readouterr()
    rc = main(["predict", *raw, *model])
    captured = capsys.readouterr()
    assert rc == 0
    rows = captured.out.splitlines()
    assert len(rows) == 30
    assert all(row.startswith("SYN") and row.count("\t") == 2 for row in rows)
    assert captured.err == "warning: 1 override id(s) matched no sequence\n"


def test_predict_lists_each_sequence(feature_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--features", str(feature_csv), "--model", str(model_path)])
    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--features", str(feature_csv)])
    captured = capsys.readouterr().out
    assert rc == 0
    lines = captured.strip().splitlines()
    assert len(lines) == 30
    first = lines[0].split("\t")
    assert first[0].startswith("SYN") and first[1] in ("human", "other")


def with_cell(feature_csv, column, text):
    """A copy of the feature table with SYN0004_HUMAN's cell in column set
    to text."""
    lines = feature_csv.read_text().splitlines(keepends=True)
    body = lines[5].rstrip("\r\n")
    cells = body.split(",")
    assert cells[0] == "SYN0004_HUMAN"
    cells[lines[0].rstrip("\r\n").split(",").index(column)] = text
    lines[5] = ",".join(cells) + lines[5][len(body):]
    out = feature_csv.with_name(f"bad_{column}.csv")
    out.write_text("".join(lines))
    return out


@pytest.fixture()
def nan_csv(feature_csv):
    """The feature table with the 'ntl' cell of SYN0004_HUMAN set to nan."""
    return with_cell(feature_csv, "ntl", "nan")


@pytest.mark.parametrize("extra", [[], ["--baseline", "nb"]], ids=["svm", "nb"])
def test_train_rejects_non_finite_cell_before_writing(nan_csv, tmp_path, capsys, extra):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--features", str(nan_csv), "--model", str(model_path), *extra])
    assert rc == 2
    assert not model_path.exists()
    assert "row 'SYN0004_HUMAN' column 'ntl'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, text, message",
    [
        ("ntl", "abc", "column 'ntl': 'abc' is not a finite number"),
        ("label", "frog", "column 'label': 'frog' is not one of human, other"),
    ],
    ids=["not-a-number", "unknown-label"],
)
def test_train_names_the_bad_cell(feature_csv, tmp_path, capsys, column, text, message):
    model_path = tmp_path / "model.json"
    bad = with_cell(feature_csv, column, text)
    rc = main(["train", "--features", str(bad), "--model", str(model_path)])
    assert rc == 2
    assert not model_path.exists()
    assert f"row 'SYN0004_HUMAN' {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_scoring_rejects_non_finite_cell(
    feature_csv, nan_csv, tmp_path, capsys, command
):
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv), "--model", str(model_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.txt"
    rc = main([command, "--features", str(nan_csv), "--model", str(model_path),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert not out.exists() and captured.out == ""
    assert "row 'SYN0004_HUMAN' column 'ntl'" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["train"],
        ["predict"],
        ["evaluate", "--model", "{model}"],
        ["evaluate", "--holdout", "5"],
        ["cross-validate"],
        ["grid-search"],
    ],
    ids=["train", "predict", "evaluate-model", "evaluate-holdout",
         "cross-validate", "grid-search"],
)
def test_empty_feature_table_exits_3(feature_csv, tmp_path, capsys, command):
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv), "--model", str(model_path)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(feature_csv.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    argv = [a.format(model=model_path) for a in command]
    if command[0] in ("train", "predict"):
        argv += ["--model", str(model_path)]
    rc = main(argv + ["--features", str(empty)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "no usable sequences" in captured.err


def test_cross_validate_defaults_to_ten_folds(feature_csv, capsys):
    rc = main(["cross-validate", "--features", str(feature_csv), "--seed", "2"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "Total Number of Instances 30" in " ".join(captured.split())


def test_grid_search_singleton(feature_csv, capsys):
    rc = main(
        [
            "grid-search", "--features", str(feature_csv),
            "--gammas", "10", "--cs", "1.0", "--cv", "3",
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "best: gamma=10 c=1" in captured


def test_grid_search_tie_prefers_smaller_c_then_gamma(feature_csv, capsys):
    rc = main(
        [
            "grid-search", "--features", str(feature_csv),
            "--gammas", "2,1", "--cs", "1.0,0.5", "--cv", "3",
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    # The corpus is cleanly separable, so every pair ties at 100%.
    assert "best: gamma=1 c=0.5" in captured


@pytest.fixture()
def noisy_feature_csv(corpus):
    """The corpus's features with two human sequences relabeled 'other'."""
    labels = corpus / "labels.tsv"
    labels.write_text("SYN0000_HUMAN\tother\nSYN0008_HUMAN\tother\n")
    out = corpus / "noisy.csv"
    rc = main(
        [
            "extract-features",
            "--fasta", str(corpus / "corpus.fasta"),
            "--topology", str(corpus / "corpus.tmhmm"),
            "--labels", str(labels),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


# Printed by the grid search that fitted every cell from alpha = 0, before
# fits along ascending C started from the previous C's solution. At
# --kkt-tol 1e-9 the rows do not depend on where a fit starts.
COLD_GRID_ROWS = {
    "10,0.1,1": """\
     gamma          c  cv_accuracy
       0.1        0.1     93.3333 %
       0.1          1     93.3333 %
         1          1     93.3333 %
       0.1         10     93.3333 %
         1         10     90.0000 %
         1        0.1     73.3333 %
best: gamma=0.1 c=0.1 accuracy=93.3333 %
""",
    "1,1": """\
     gamma          c  cv_accuracy
       0.1          1     93.3333 %
       0.1          1     93.3333 %
         1          1     93.3333 %
         1          1     93.3333 %
best: gamma=0.1 c=1 accuracy=93.3333 %
""",
}


@pytest.mark.parametrize("cs", sorted(COLD_GRID_ROWS), ids=["duplicate", "unsorted"])
def test_grid_search_rows_match_cold_fits(noisy_feature_csv, capsys, cs):
    capsys.readouterr()
    rc = main(
        [
            "grid-search", "--features", str(noisy_feature_csv), "--kkt-tol", "1e-9",
            "--gammas", "0.1,1", "--cs", cs, "--cv", "5",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == COLD_GRID_ROWS[cs]


def test_grid_search_rejects_the_nb_baseline(feature_csv, capsys):
    rc = main(
        [
            "grid-search", "--features", str(feature_csv), "--baseline", "nb",
            "--gammas", "0.1,1", "--cs", "1,10", "--cv", "5",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "grid-search tunes only the SVM" in captured.err


def test_grid_search_rejects_nonpositive_candidates(feature_csv):
    rc = main(
        [
            "grid-search", "--features", str(feature_csv),
            "--gammas", "10,-1", "--cs", "1.0",
        ]
    )
    assert rc == 1


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_required_flags_exit_1(tmp_path):
    assert main(["extract-features", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["train"]) == 1
