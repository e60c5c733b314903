"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

Every workload runs in both modes and emits exactly the metrics that
BENCHMARK.json names; and the oracle is shown to reject
outputs that are wrong in the ways it is meant to catch.
"""

import math
import shutil
import sys

import pytest

import oracle
import run
import workloads

sys.path.insert(0, str(run.SRC))
import corpus  # noqa: E402  (imports gpcrsvm from the source tree)
from gpcrsvm import cli  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, trace):
    units = run.metric_units(trace)
    result, detail = run.run_workload(
        workloads.tiny(workloads.WORKLOADS[name]), 3, 0.5, trace, units)
    assert result["correct"], detail
    assert result["failed"] == 0 and result["attempted"] >= 5
    assert list(result["metrics"]) == list(units)
    for metric, value in result["metrics"].items():
        assert math.isfinite(value["value"]), metric


@pytest.fixture(scope="module")
def outputs():
    """Feature table, SVM and NB models, and their predict outputs on a
    small overlapping corpus, made by the real CLI inside the checkout."""
    tmp = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    corpus.write(corpus.overlapping(80, 5, 0.8), tmp)
    features = tmp / "features.csv"
    assert cli.main(["extract-features", "--fasta", str(tmp / corpus.FASTA_NAME),
                     "--topology", str(tmp / corpus.TOPOLOGY_NAME),
                     "--out", str(features)]) == 0
    made = {"features": oracle.read_features(features.read_text())}
    for kind, extra in (("svm", ["--gamma", "1", "--c", "10"]), ("nb", ["--baseline", "nb"])):
        model, pred = tmp / f"{kind}.json", tmp / f"{kind}.tsv"
        assert cli.main(["train", "--features", str(features), "--model", str(model),
                         *extra]) == 0
        assert cli.main(["predict", "--features", str(features), "--model", str(model),
                         "--out", str(pred)]) == 0
        made[kind] = (oracle.load_json(model.read_text()), pred.read_text())
    yield made
    shutil.rmtree(tmp)


def _flip_most_confident(doc, text, X):
    lines = text.splitlines()
    i = max(range(len(lines)), key=lambda k: abs(oracle.scores(doc, X)[k]))
    sid, label, score = lines[i].split("\t")
    lines[i] = "\t".join((sid, "other" if label == "human" else "human", score))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["svm", "nb"])
def test_oracle_rejects_flipped_predict_label(outputs, kind):
    ids, _, X = outputs["features"]
    doc, text = outputs[kind]
    assert oracle.check_predict(text, doc, ids, X) == []
    errors = oracle.check_predict(_flip_most_confident(doc, text, X), doc, ids, X)
    assert len(errors) == 1 and "label" in errors[0]


def test_oracle_rejects_broken_coefficient_balance(outputs):
    ids, _, _ = outputs["features"]
    doc, _ = outputs["svm"]
    assert oracle.check_model(doc, len(ids)) == []
    broken = dict(doc, dual_coeffs=list(doc["dual_coeffs"]))
    broken["dual_coeffs"][0] *= 0.5  # still inside the box, no longer balanced
    errors = oracle.check_model(broken, len(ids))
    assert len(errors) == 1 and "sum" in errors[0]
