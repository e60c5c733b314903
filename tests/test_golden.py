"""Byte-for-byte CLI outputs on a small fixed corpus.

The files under tests/golden/ pin what extract-features, train, predict,
evaluate, cross-validate and grid-search print for a 40-sequence synthetic
corpus with four labels flipped (so the cross-validated reports have errors
in them). The `_tight` files repeat the SVM commands at --kkt-tol 1e-9.
A change that moves a printed digit must show and explain the difference.
Regenerate the files only for a change meant to alter output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gpcrsvm import seqio, synthetic, topology
from gpcrsvm.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLIPPED = (1, 7, 24, 33)  # record indices whose label is overridden


def _run(argv, tmp):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(tmp=tmp) for a in argv])
    assert code == 0, argv
    return out.getvalue().replace(str(tmp), "{tmp}")


def make_outputs(tmp: Path) -> dict[str, str]:
    """Run the pinned command chain in tmp; map golden file name -> text."""
    made = synthetic.make_corpus(n_sequences=40, seed=11)
    (tmp / "corpus.fasta").write_text(seqio.format_fasta(made.records))
    (tmp / "corpus.tmhmm").write_text(topology.format_topology(made.topologies))
    flips = []
    for i in FLIPPED:
        rec = made.records[i]
        flips.append(f"{rec.id}\t{'other' if rec.id.endswith('_HUMAN') else 'human'}\n")
    (tmp / "labels.tsv").write_text("".join(flips))
    feats = ["--features", "{tmp}/features.csv"]
    svm_model = ["--model", "{tmp}/svm.json"]
    nb_model = ["--model", "{tmp}/nb.json"]
    svm_params = ["--gamma", "1", "--c", "10"]
    # Solved to --kkt-tol 1e-9, a model no longer depends on which pairs the
    # solver took, so these outputs hold across changes of selection rule.
    tight_model = ["--model", "{tmp}/svm_tight.json"]
    tight = [*svm_params, "--kkt-tol", "1e-9"]
    return {
        "extract_features.txt": _run(
            ["extract-features", "--fasta", "{tmp}/corpus.fasta",
             "--topology", "{tmp}/corpus.tmhmm", "--labels", "{tmp}/labels.tsv",
             "--out", "{tmp}/features.csv"], tmp),
        "train_svm.txt": _run(["train", *feats, *svm_model, *svm_params], tmp),
        "train_nb.txt": _run(["train", *feats, *nb_model, "--baseline", "nb"], tmp),
        "predict_svm.tsv": _run(["predict", *feats, *svm_model], tmp),
        "predict_nb.tsv": _run(["predict", *feats, *nb_model], tmp),
        "evaluate_model_svm.txt": _run(["evaluate", *feats, *svm_model], tmp),
        "evaluate_model_nb.json": _run(
            ["evaluate", *feats, *nb_model, "--format", "json"], tmp),
        "evaluate_holdout_svm.json": _run(
            ["evaluate", *feats, *svm_params, "--holdout", "28", "--format", "json"],
            tmp),
        "evaluate_holdout_nb.txt": _run(
            ["evaluate", *feats, "--baseline", "nb", "--holdout", "28"], tmp),
        "cross_validate_svm.txt": _run(
            ["cross-validate", *feats, *svm_params, "--cv", "5"], tmp),
        "cross_validate_svm.json": _run(
            ["cross-validate", *feats, *svm_params, "--cv", "5", "--format", "json"],
            tmp),
        "cross_validate_nb.json": _run(
            ["cross-validate", *feats, "--baseline", "nb", "--cv", "5",
             "--format", "json"], tmp),
        "grid_search_svm.txt": _run(
            ["grid-search", *feats, "--gammas", "0.1,1", "--cs", "1,10",
             "--cv", "5"], tmp),
        "train_svm_tight.txt": _run(["train", *feats, *tight_model, *tight], tmp),
        "predict_svm_tight.tsv": _run(["predict", *feats, *tight_model], tmp),
        "evaluate_model_svm_tight.txt": _run(
            ["evaluate", *feats, *tight_model], tmp),
        "evaluate_holdout_svm_tight.txt": _run(
            ["evaluate", *feats, *tight, "--holdout", "28"], tmp),
        "cross_validate_svm_tight.txt": _run(
            ["cross-validate", *feats, *tight, "--cv", "5"], tmp),
        "grid_search_svm_tight.txt": _run(
            ["grid-search", *feats, "--kkt-tol", "1e-9", "--gammas", "0.1,1",
             "--cs", "1,10", "--cv", "5"], tmp),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return make_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_cli_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


def test_every_output_has_a_golden(outputs):
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.glob("*"))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in make_outputs(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
