"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import qp_oracle
from gpcrsvm import evaluation, features, modelfile, seqio, svm, synthetic, topology
from gpcrsvm.evaluation import ConfusionMatrix, error_metrics, report_from_matrix
from gpcrsvm.seqio import AMINO_ACIDS

# Reference evaluation of a 36-instance holdout: 34 correct, perfect
# sensitivity, specificity 20/22, trained on 188 instances of which 90
# were positive. All expected statistics below follow from these counts.
REFERENCE_MATRIX = ConfusionMatrix(tp=14, fp=2, fn=0, tn=20)
REFERENCE_TRAIN_SIZE = 188
REFERENCE_TRAIN_POSITIVES = 90

ORACLE_GAMMAS = (0.1, 1.0, 10.0)
ORACLE_CS = (0.1, 1.0, 10.0)
ORACLE_KKT_TOLERANCE = 1e-6


def _pass(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


# -- criterion 1: reference statistics block ---------------------------------


def test_criterion_1_reference_statistics():
    started = time.perf_counter()
    prior = REFERENCE_TRAIN_POSITIVES / REFERENCE_TRAIN_SIZE
    report = report_from_matrix(REFERENCE_MATRIX, baseline_prior=prior)
    assert report.accuracy == pytest.approx(94.4444, abs=5e-5)
    assert report.kappa == pytest.approx(0.8861, abs=5e-5)
    assert report.mae == pytest.approx(0.0556, abs=5e-5)
    assert report.rmse == pytest.approx(0.2357, abs=5e-5)
    assert report.sensitivity == pytest.approx(100.00, abs=5e-5)
    assert report.specificity == pytest.approx(90.9091, abs=5e-5)
    assert round(report.mcc, 4) == 0.8919
    assert round(report.mcc, 2) == 0.89
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(
        "criterion 1: accuracy 94.4444 %, kappa 0.8861, MAE 0.0556, "
        f"RMSE 0.2357, sensitivity 100.00, specificity 90.9091, MCC 0.8919 "
        f"({elapsed:.3f}s)"
    )


# -- criterion 2: the confusion matrix is uniquely determined ----------------


def test_criterion_2_confusion_matrix_is_unique():
    started = time.perf_counter()
    total = 36
    correct = 34
    specificity = Fraction(20, 22)
    matches = []
    for tp in range(total + 1):
        for fp in range(total + 1 - tp):
            for fn in range(total + 1 - tp - fp):
                tn = total - tp - fp - fn
                if tp + tn != correct:
                    continue
                if fn != 0 or tp == 0:  # sensitivity must equal 1.0 exactly
                    continue
                if tn + fp == 0 or Fraction(tn, tn + fp) != specificity:
                    continue
                matches.append((tp, fp, fn, tn))
    assert matches == [(14, 2, 0, 20)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(
        f"criterion 2: exhaustive enumeration gives the unique matrix "
        f"(14, 2, 0, 20) ({elapsed:.3f}s)"
    )


# -- criterion 3: relative-error baseline reconstruction ---------------------


def test_criterion_3_rae_reconstruction():
    started = time.perf_counter()
    actuals = [1.0] * 14 + [0.0] * 22
    predictions = [1.0] * 16 + [0.0] * 20
    target_rae = 11.214

    def rae_for(k: int) -> float:
        prior = k / REFERENCE_TRAIN_SIZE
        return error_metrics(actuals, predictions, prior).rae

    best_k = min(
        range(1, REFERENCE_TRAIN_SIZE), key=lambda k: abs(rae_for(k) - target_rae)
    )
    assert best_k == REFERENCE_TRAIN_POSITIVES
    err = error_metrics(actuals, predictions, best_k / REFERENCE_TRAIN_SIZE)
    assert abs(err.rae - target_rae) < 0.5
    # The squared-error analogue does not land on the reported 47.4146 %
    # under the same constant-prior baseline; the residual gap stays within
    # half a point and is documented rather than chased.
    assert err.rrse == pytest.approx(47.549, abs=1e-2)
    assert abs(err.rrse - 47.4146) < 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(
        f"criterion 3: prior scan recovers 90/188, RAE {err.rae:.4f} % "
        f"(target 11.214 %), residual RRSE gap {err.rrse:.4f} % vs 47.4146 % "
        f"({elapsed:.3f}s)"
    )


# -- criteria 4 and 5: trainer vs reference QP solver ------------------------


@pytest.fixture(scope="module")
def oracle_corpus_results():
    rng = np.random.default_rng(7)
    results = []
    started = time.perf_counter()
    for _ in range(12):
        n = int(rng.integers(8, 21))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        for gamma in ORACLE_GAMMAS:
            for c in ORACLE_CS:
                config = svm.SvmConfig(
                    gamma=gamma, c=c, kkt_tolerance=ORACLE_KKT_TOLERANCE
                )
                model = svm.train(X, y, config, debug=True)
                oracle_alpha, oracle_bias, oracle_dec, oracle_obj = (
                    qp_oracle.oracle_model(X, y, gamma, c)
                )
                results.append(
                    {
                        "X": X,
                        "y": y,
                        "config": config,
                        "model": model,
                        "oracle_objective": oracle_obj,
                        "oracle_decisions": oracle_dec,
                    }
                )
    return results, time.perf_counter() - started


def test_criterion_4_smo_matches_qp_oracle(oracle_corpus_results):
    results, elapsed = oracle_corpus_results
    assert len(results) >= 100
    worst_gap = 0.0
    agreements = 0
    total = 0
    for run in results:
        model = run["model"]
        gap = abs(model.diagnostics.objective - run["oracle_objective"])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-4
        ours = svm.decision_function(model, run["X"])
        same = np.sum((ours >= 0) == (run["oracle_decisions"] >= 0))
        n = len(run["y"])
        assert same >= math.ceil(0.99 * n)
        agreements += int(same)
        total += n
    assert elapsed < 60.0
    _pass(
        f"criterion 4: {len(results)} runs, worst dual-objective gap "
        f"{worst_gap:.2e} (<= 1e-4), prediction agreement "
        f"{agreements}/{total} ({elapsed:.1f}s)"
    )


def test_criterion_5_kkt_invariants(oracle_corpus_results):
    results, _ = oracle_corpus_results
    failures = 0
    for run in results:
        model = run["model"]
        config = run["config"]
        diag = model.diagnostics
        alphas = diag.alphas_full
        X, y = run["X"], run["y"]
        # Per-point optimality violation, recomputed from definitions.
        decisions = svm.decision_function(model, X)
        r = y * (decisions - y)
        bound = 1e-8 * config.c
        viol = np.zeros_like(alphas)
        grow = alphas < config.c - bound
        shrink = alphas > bound
        viol[grow] = np.maximum(viol[grow], -r[grow])
        viol[shrink] = np.maximum(viol[shrink], r[shrink])
        # Weak duality and the per-point bound on P - D; the margin covers
        # sum(alpha * y) rounding and the pruned near-zero multipliers.
        slack = abs(model.bias * diag.balance) + 1e-9 * max(1.0, abs(diag.primal))
        ok = (
            -slack <= diag.duality_gap <= config.c * float(np.sum(viol)) + slack
            and np.all(alphas >= 0.0)
            and np.all(alphas <= config.c)
            and abs(float(np.dot(alphas, y))) <= 1e-8
            and float(np.max(viol)) <= config.kkt_tolerance + 1e-12
            and len(diag.objective_history) == diag.updates + 1
            and all(
                later >= earlier - 1e-9 * max(1.0, abs(earlier))
                for earlier, later in zip(
                    diag.objective_history, diag.objective_history[1:]
                )
            )
        )
        failures += 0 if ok else 1
    assert failures == 0
    _pass(
        f"criterion 5: box bounds, equality constraint, KKT tolerance, duality "
        f"gap and objective monotonicity hold on all {len(results)} trained models"
    )


# -- criterion 6: composition properties --------------------------------------


def test_criterion_6_composition_properties():
    rng = np.random.default_rng(2024)
    alphabet = AMINO_ACIDS + "X"
    checked = 0
    for _ in range(1000):
        length = int(rng.integers(1, 2001))
        letters = rng.integers(0, len(alphabet), size=length)
        residues = "".join(alphabet[i] for i in letters)
        counts = {}
        for ch in residues:
            if ch != "X":
                counts[ch] = counts.get(ch, 0) + 1
        total = sum(counts.values())
        if total == 0:
            with pytest.raises(features.CompositionError):
                features.composition(residues)
            continue
        values = features.composition(residues)
        assert abs(float(values.sum()) - 1.0) <= 1e-9
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        for i, aa in enumerate(AMINO_ACIDS):
            assert values[i] == counts.get(aa, 0) / total
        checked += 1
    assert checked >= 990
    _pass(
        f"criterion 6: composition sums, bounds, and counting-oracle "
        f"equality hold on {checked} random sequences"
    )


# -- criterion 7: end-to-end synthetic pipeline -------------------------------


def _run_synthetic_pipeline(tmp_path, tag: str):
    corpus = synthetic.make_corpus(n_sequences=100, seed=42)
    fasta = tmp_path / f"{tag}.fasta"
    topo = tmp_path / f"{tag}.tmhmm"
    fasta.write_text(seqio.format_fasta(corpus.records))
    topo.write_text(topology.format_topology(corpus.topologies))
    records = seqio.parse_fasta(fasta.read_text())
    labeled, _ = seqio.assign_labels(records)
    maps = topology.parse_topology(topo.read_text())
    dataset = features.assemble_dataset(labeled, maps)
    config = svm.SvmConfig()  # defaults: gamma 10, c 1.0
    fit = lambda train_ds: (
        lambda x, model=svm.fit_dataset(train_ds, config): svm.predict(model, x)
    )
    result = evaluation.cross_validate(dataset, 10, fit, seed=42)
    return dataset, result


def test_criterion_7_end_to_end_synthetic(tmp_path):
    started = time.perf_counter()
    dataset, result = _run_synthetic_pipeline(tmp_path, "run_a")
    assert len(dataset) == 100

    X = dataset.X
    y = dataset.y
    means_gap = np.abs(X[y > 0].mean(axis=0) - X[y < 0].mean(axis=0))
    pooled_sd = np.sqrt((X[y > 0].var(axis=0) + X[y < 0].var(axis=0)) / 2)
    shift = means_gap / np.maximum(pooled_sd, 1e-12)
    assert shift[:20].max() >= 5.0

    assert result.pooled.accuracy >= 90.0

    _, rerun = _run_synthetic_pipeline(tmp_path, "run_b")
    assert evaluation.render_text(result.pooled) == evaluation.render_text(
        rerun.pooled
    )
    assert evaluation.report_to_json(result.pooled) == evaluation.report_to_json(
        rerun.pooled
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        f"criterion 7: synthetic 10-fold CV accuracy "
        f"{result.pooled.accuracy:.2f} % (>= 90), max composition shift "
        f"{shift[:20].max():.1f} sigma, byte-identical reruns ({elapsed:.1f}s)"
    )


# -- criterion 8: persistence round trips -------------------------------------


def test_criterion_8_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(555)
    worst = 0.0
    for index in range(10):
        n = int(rng.integers(8, 25))
        d = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        config = svm.SvmConfig(
            gamma=float(rng.choice([0.1, 1.0, 10.0])),
            c=float(rng.choice([0.1, 1.0, 10.0])),
            kkt_tolerance=1e-5,
        )
        model = svm.train(X, y, config)
        path = tmp_path / f"model_{index}.json"
        svm.save_model(model, path)
        loaded = svm.load_model(modelfile.read_document(path, svm.SVM_SCHEMA))
        probe = rng.normal(size=(100, d))
        gap = np.abs(
            svm.decision_function(model, probe)
            - svm.decision_function(loaded, probe)
        )
        worst = max(worst, float(gap.max()))
        assert worst <= 1e-12
    _pass(
        f"criterion 8: save/load preserves the decision function to "
        f"{worst:.1e} (<= 1e-12) across 10 models x 100 probes"
    )
