import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qp_oracle
from gpcrsvm import svm
from gpcrsvm.baseline import nb_fit_dataset, nb_predict
from gpcrsvm.errors import DegenerateDataError
from gpcrsvm.evaluation import (
    KAPPA_DEGENERATE,
    MCC_DEGENERATE,
    SENSITIVITY_UNDEFINED,
    ConfusionMatrix,
    PredictionRecord,
    basic_metrics,
    confusion,
    cross_validate,
    cross_validate_each,
    error_metrics,
    evaluate_predictions,
    holdout_split,
    kappa,
    kappa_is_degenerate,
    mcc,
    mcc_is_degenerate,
    render_text,
    report_from_matrix,
    report_to_dict,
    report_to_json,
    stratified_folds,
)
from gpcrsvm.features import Dataset, apply_normalizer, fit_normalizer
from gpcrsvm.seqio import Label

H, O = Label.HUMAN, Label.OTHER
REFERENCE_MATRIX = ConfusionMatrix(tp=14, fp=2, fn=0, tn=20)
REFERENCE_PRIOR = 90 / 188


def labeled_dataset(ids, X, labels):
    return Dataset(tuple(ids), np.asarray(X, dtype=float),
                   np.array([label.sign for label in labels], dtype=float))


def gaussian_dataset(rng, n_per_class=50, d=4, separation=10.0):
    rows = []
    for i in range(n_per_class):
        rows.append(np.concatenate([rng.normal(0.0, 1.0, d), np.zeros(24 - d)]))
    for i in range(n_per_class):
        rows.append(np.concatenate([rng.normal(separation, 1.0, d), np.zeros(24 - d)]))
    ids = [f"H{i}" for i in range(n_per_class)] + [f"O{i}" for i in range(n_per_class)]
    return labeled_dataset(ids, rows, [H] * n_per_class + [O] * n_per_class)


# -- confusion ---------------------------------------------------------------


def test_confusion_all_correct_positive():
    m = confusion([H] * 5, [H] * 5)
    assert (m.tp, m.fp, m.fn, m.tn) == (5, 0, 0, 0)


def test_confusion_all_missed():
    m = confusion([H] * 3, [O] * 3)
    assert (m.tp, m.fp, m.fn, m.tn) == (0, 0, 3, 0)


def test_confusion_reference_split():
    actuals = [H] * 14 + [O] * 22
    predictions = [H] * 14 + [H] * 2 + [O] * 20
    assert confusion(actuals, predictions) == REFERENCE_MATRIX


def test_confusion_errors():
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([H], [H, O])


# -- basic metrics -----------------------------------------------------------


def test_basic_metrics_reference_values():
    bm = basic_metrics(REFERENCE_MATRIX)
    assert bm.accuracy == pytest.approx(94.4444, abs=5e-5)
    assert bm.sensitivity == 100.0
    assert bm.specificity == pytest.approx(90.9091, abs=5e-5)


def test_basic_metrics_undefined_sensitivity():
    bm = basic_metrics(ConfusionMatrix(0, 0, 0, 10))
    assert bm.sensitivity is None
    assert bm.specificity == 100.0


def test_basic_metrics_perfect():
    bm = basic_metrics(ConfusionMatrix(5, 0, 0, 5))
    assert (bm.accuracy, bm.sensitivity, bm.specificity) == (100.0, 100.0, 100.0)


# -- mcc ---------------------------------------------------------------------


def test_mcc_reference_value():
    value = mcc(REFERENCE_MATRIX)
    assert value == pytest.approx(280 / math.sqrt(16 * 14 * 22 * 20), abs=1e-12)
    assert round(value, 4) == 0.8919
    assert round(value, 2) == 0.89


def test_mcc_extremes():
    assert mcc(ConfusionMatrix(5, 0, 0, 5)) == 1.0
    assert mcc(ConfusionMatrix(0, 4, 4, 0)) == -1.0


def test_mcc_degenerate():
    m = ConfusionMatrix(3, 3, 0, 0)  # everything predicted positive
    assert mcc_is_degenerate(m)
    assert mcc(m) == 0.0


# -- kappa -------------------------------------------------------------------


def test_kappa_reference_value():
    value = kappa(REFERENCE_MATRIX)
    p_obs = 34 / 36
    p_exp = (16 * 14 + 20 * 22) / 36**2
    assert value == pytest.approx((p_obs - p_exp) / (1 - p_exp), abs=1e-12)
    assert value == pytest.approx(0.8861, abs=5e-5)


def test_kappa_perfect():
    assert kappa(ConfusionMatrix(5, 0, 0, 5)) == 1.0


def test_kappa_constant_predictions_on_balanced_set():
    assert kappa(ConfusionMatrix(3, 3, 0, 0)) == 0.0


def test_kappa_degenerate_chance_agreement():
    m = ConfusionMatrix(6, 0, 0, 0)
    assert kappa_is_degenerate(m)
    assert kappa(m) == 0.0


# -- error metrics -----------------------------------------------------------


def test_error_metrics_reference_values():
    actuals = [1.0] * 14 + [0.0] * 22
    predictions = [1.0] * 16 + [0.0] * 20  # two false positives
    err = error_metrics(actuals, predictions, baseline_prior=0.5)
    assert err.mae == pytest.approx(0.0556, abs=5e-5)
    assert err.rmse == pytest.approx(0.2357, abs=5e-5)


def test_error_metrics_reconstructed_prior():
    actuals = [1.0] * 14 + [0.0] * 22
    predictions = [1.0] * 16 + [0.0] * 20
    err = error_metrics(actuals, predictions, baseline_prior=REFERENCE_PRIOR)
    assert err.rae == pytest.approx(11.217, abs=1e-3)
    assert abs(err.rae - 11.214) < 0.5


def test_error_metrics_perfect_predictions():
    err = error_metrics([1.0, 0.0, 1.0], [1.0, 0.0, 1.0], baseline_prior=0.5)
    assert (err.mae, err.rmse, err.rae, err.rrse) == (0.0, 0.0, 0.0, 0.0)


def test_error_metrics_rejects_degenerate_prior():
    with pytest.raises(DegenerateDataError):
        error_metrics([1.0], [1.0], baseline_prior=0.0)
    with pytest.raises(DegenerateDataError):
        error_metrics([1.0], [1.0], baseline_prior=1.0)


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60
    )
)
def test_hard_prediction_identities(pairs):
    actuals = [H if a else O for a, _ in pairs]
    predictions = [H if p else O for _, p in pairs]
    m = confusion(actuals, predictions)
    report = report_from_matrix(m)
    assert report.mae == pytest.approx((m.fp + m.fn) / m.total, abs=1e-12)
    assert report.rmse == pytest.approx(math.sqrt(report.mae), abs=1e-12)


@given(
    st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)
def test_confusion_is_permutation_invariant(pairs, rng):
    actuals = [H if a else O for a, _ in pairs]
    predictions = [H if p else O for _, p in pairs]
    base = confusion(actuals, predictions)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    shuffled = confusion(
        [actuals[i] for i in order], [predictions[i] for i in order]
    )
    assert base == shuffled


@given(
    st.tuples(
        st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)
    ).filter(lambda t: sum(t) > 0)
)
def test_class_swap_symmetry(counts):
    m = ConfusionMatrix(*counts)
    swapped = ConfusionMatrix(tp=m.tn, fp=m.fn, fn=m.fp, tn=m.tp)
    bm, bs = basic_metrics(m), basic_metrics(swapped)
    assert bm.accuracy == bs.accuracy
    assert bm.sensitivity == bs.specificity
    assert bm.specificity == bs.sensitivity
    assert abs(mcc(m)) == pytest.approx(abs(mcc(swapped)), abs=1e-12)
    assert kappa(m) == pytest.approx(kappa(swapped), abs=1e-12)


# -- reports -----------------------------------------------------------------


def test_report_reference_block():
    report = report_from_matrix(REFERENCE_MATRIX, baseline_prior=REFERENCE_PRIOR)
    text = render_text(report)
    normalized = " ".join(text.split())
    assert "Kappa statistic 0.8861" in normalized
    assert "94.4444 %" in normalized
    assert "Mean absolute error 0.0556" in normalized
    assert "Root mean squared error 0.2357" in normalized
    assert "Total Number of Instances 36" in normalized


def test_report_flags_degenerate_statistics():
    report = report_from_matrix(ConfusionMatrix(3, 3, 0, 0))
    assert MCC_DEGENERATE in report.flags
    report = report_from_matrix(ConfusionMatrix(0, 0, 0, 4))
    assert SENSITIVITY_UNDEFINED in report.flags
    assert KAPPA_DEGENERATE in report.flags


def test_report_json_round_trip():
    records = (
        PredictionRecord("A", H, H),
        PredictionRecord("B", O, H),
    )
    report = evaluate_predictions(records, baseline_prior=0.5)
    doc = json.loads(report_to_json(report))
    assert doc["matrix"] == {"tp": 1, "fp": 1, "fn": 0, "tn": 0}
    assert doc["predictions"][1] == {"id": "B", "actual": "other", "predicted": "human"}
    assert doc == report_to_dict(report)


# -- holdout -----------------------------------------------------------------


def balanced_dataset(n_pos, n_neg):
    ids = [f"H{i}" for i in range(n_pos)] + [f"O{i}" for i in range(n_neg)]
    rows = [np.full(24, float(i)) for i in range(n_pos)] + [
        np.full(24, float(100 + i)) for i in range(n_neg)
    ]
    return labeled_dataset(ids, np.reshape(rows, (-1, 24)), [H] * n_pos + [O] * n_neg)


def test_holdout_reference_sizes():
    ds = balanced_dataset(112, 112)
    train, test = holdout_split(ds, 188, seed=42)
    assert len(train) == 188 and len(test) == 36
    train_pos = sum(1 for label in train.labels if label is H)
    assert abs(train_pos - 188 * 112 / 224) <= 1.0


def test_holdout_respects_class_proportions():
    ds = balanced_dataset(30, 90)
    train, test = holdout_split(ds, 40, seed=0)
    train_pos = sum(1 for label in train.labels if label is H)
    assert abs(train_pos - 40 * 30 / 120) <= 1.0
    assert len(train) == 40 and len(test) == 80


def test_holdout_tiny_balanced():
    ds = balanced_dataset(2, 2)
    train, test = holdout_split(ds, 2, seed=7)
    for part in (train, test):
        labels = set(part.labels)
        assert labels == {H, O}


def test_holdout_rejects_bad_train_count():
    ds = balanced_dataset(3, 3)
    with pytest.raises(ValueError):
        holdout_split(ds, 6, seed=0)
    with pytest.raises(ValueError):
        holdout_split(ds, 0, seed=0)


def test_holdout_rejects_class_starvation():
    ds = balanced_dataset(1, 5)
    with pytest.raises(DegenerateDataError):
        holdout_split(ds, 3, seed=0)


def test_holdout_is_deterministic():
    ds = balanced_dataset(20, 20)
    a = holdout_split(ds, 30, seed=5)
    b = holdout_split(ds, 30, seed=5)
    assert a[0].ids == b[0].ids
    c = holdout_split(ds, 30, seed=6)
    assert a[0].ids != c[0].ids


# Interleaved labels; the ids below were recorded from the list-of-rows
# Dataset that came before the array one, so the RNG draws must not move.
MIXED_PATTERN = "hohhoohhhoohohhoooohoho"


def mixed_dataset():
    ids = [f"r{i:02d}" for i in range(len(MIXED_PATTERN))]
    labels = [H if c == "h" else O for c in MIXED_PATTERN]
    return labeled_dataset(ids, [np.full(24, float(i)) for i in range(len(ids))], labels)


def test_folds_and_holdout_draw_the_recorded_ids():
    ds = mixed_dataset()
    named = lambda folds: [[ds.ids[i] for i in fold] for fold in folds]
    assert named(stratified_folds(ds, 4, seed=3)) == [
        ["r01", "r02", "r04", "r05", "r08", "r11"],
        ["r00", "r07", "r15", "r20", "r21", "r22"],
        ["r03", "r09", "r12", "r13", "r14", "r18"],
        ["r06", "r10", "r16", "r17", "r19"],
    ]
    assert named(stratified_folds(ds, 5, seed=42)) == [
        ["r03", "r06", "r09", "r12", "r13"],
        ["r05", "r08", "r10", "r14", "r17"],
        ["r04", "r11", "r16", "r19", "r20"],
        ["r00", "r01", "r07", "r22"],
        ["r02", "r15", "r18", "r21"],
    ]
    train, test = holdout_split(ds, 15, seed=5)
    assert train.ids == (
        "r01", "r02", "r03", "r04", "r05", "r06", "r10", "r11",
        "r13", "r14", "r17", "r18", "r20", "r21", "r22",
    )
    assert test.ids == ("r00", "r07", "r08", "r09", "r12", "r15", "r16", "r19")
    assert (ds.positive_fraction(), train.positive_fraction(),
            test.positive_fraction()) == (11 / 23, 7 / 15, 0.5)


# -- cross-validation --------------------------------------------------------


@given(st.integers(2, 8), st.integers(2, 25), st.integers(2, 25), st.integers(0, 99))
def test_stratified_folds_partition(k, n_pos, n_neg, seed):
    ds = balanced_dataset(n_pos, n_neg)
    if k > len(ds):
        return
    folds = stratified_folds(ds, k, seed)
    assert len(folds) == k
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(len(ds)))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 2  # one per class at most
    for fold in folds:
        fold_pos = sum(1 for i in fold if ds.y[i] > 0)
        assert abs(fold_pos - len(fold) * n_pos / len(ds)) <= 1.5


def test_leave_one_out_partition():
    ds = balanced_dataset(3, 3)
    folds = stratified_folds(ds, 6, seed=1)
    assert [len(f) for f in folds] == [1] * 6


def test_cross_validate_pools_all_instances():
    ds = balanced_dataset(3, 3)
    fit = lambda train_ds: (lambda X: [H] * len(X))
    result = cross_validate(ds, 6, fit, seed=1)
    assert result.pooled.matrix.total == 6
    assert len(result.folds) == 6


def test_stratified_folds_validation():
    ds = balanced_dataset(3, 3)
    with pytest.raises(ValueError):
        stratified_folds(ds, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(ds, 7, seed=0)
    with pytest.raises(DegenerateDataError):
        stratified_folds(balanced_dataset(1, 5), 2, seed=0)


def test_cross_validate_constant_predictor_error_metrics():
    ds = balanced_dataset(4, 4)
    fit = lambda train_ds: (lambda X: [H] * len(X))
    result = cross_validate(ds, 2, fit, seed=3)
    m = result.pooled.matrix
    assert (m.tp, m.fp, m.fn, m.tn) == (4, 4, 0, 0)
    #每 fold trains on 2+2, prior 0.5; all-positive predictions miss the
    # negatives only: per fold |err| = 2 vs baseline 4 * 0.5 = 2.
    assert result.pooled.rae == pytest.approx(100.0, abs=1e-9)
    assert result.pooled.rrse == pytest.approx(100.0 * math.sqrt(2.0), abs=1e-9)
    assert result.pooled.mae == 0.5
    assert result.pooled.baseline_prior == 0.5


def test_cross_validate_is_reproducible():
    rng = np.random.default_rng(17)
    ds = gaussian_dataset(rng, n_per_class=12, d=3)
    fit = lambda train_ds: (
        lambda x, model=nb_fit_dataset(train_ds): nb_predict(model, x)
    )
    a = cross_validate(ds, 4, fit, seed=11)
    b = cross_validate(ds, 4, fit, seed=11)
    assert render_text(a.pooled) == render_text(b.pooled)
    assert report_to_json(a.pooled) == report_to_json(b.pooled)
    assert a.pooled == b.pooled
    assert a.folds == b.folds


def test_cross_validate_each_matches_separate_cross_validations():
    # Overlapping classes, so the two models err on different folds.
    rng = np.random.default_rng(23)
    ds = gaussian_dataset(rng, n_per_class=15, d=3, separation=1.5)
    nb_fit = lambda train_ds: (
        lambda X, model=nb_fit_dataset(train_ds): nb_predict(model, X)
    )
    svm_fit = svm.fitter(svm.SvmConfig(gamma=1.0, c=1.0))
    (alone,) = cross_validate_each(ds, 5, lambda train_ds: [nb_fit(train_ds)], seed=4)
    assert alone == cross_validate(ds, 5, nb_fit, seed=4)
    both = cross_validate_each(
        ds, 5, lambda train_ds: [nb_fit(train_ds), svm_fit(train_ds)], seed=4
    )
    assert both == [cross_validate(ds, 5, fit, seed=4) for fit in (nb_fit, svm_fit)]
    assert both[0].pooled.matrix != both[1].pooled.matrix


def test_cross_validate_each_rejects_a_changing_model_count():
    ds = balanced_dataset(4, 4)
    calls = []

    def fit_each(train_ds):
        calls.append(None)
        return [lambda X: [H] * len(X)] * len(calls)

    with pytest.raises(ValueError):
        cross_validate_each(ds, 2, fit_each, seed=0)


def oracle_fitter(gamma, c):
    """Cross-validation fitter backed by the reference QP solver."""

    def fit(train_ds):
        normalizer = fit_normalizer(train_ds.X)
        X = np.stack([apply_normalizer(normalizer, x) for x in train_ds.X])
        y = train_ds.y
        K = qp_oracle.oracle_rbf_gram(X, gamma)
        alpha, _ = qp_oracle.solve_dual(K, y, c)
        bias = qp_oracle.optimal_bias(K, y, alpha, c)
        beta = alpha * y

        def predictor(rows):
            labels = []
            for x in rows:
                xn = apply_normalizer(normalizer, x)
                k = np.exp(-gamma * np.sum((X - xn) ** 2, axis=1))
                labels.append(H if float(k @ beta + bias) >= 0 else O)
            return labels

        return predictor

    return fit


def test_separable_clusters_cross_validate_perfectly():
    rng = np.random.default_rng(99)
    ds = gaussian_dataset(rng, n_per_class=50, d=4, separation=10.0)
    config = svm.SvmConfig()  # defaults: gamma=10, c=1
    svm_fit = lambda train_ds: (
        lambda X, model=svm.fit_dataset(train_ds, config): svm.predict(model, X)
    )
    nb_fit = lambda train_ds: (
        lambda X, model=nb_fit_dataset(train_ds): nb_predict(model, X)
    )
    for fit in (svm_fit, nb_fit, oracle_fitter(10.0, 1.0)):
        result = cross_validate(ds, 10, fit, seed=42)
        assert result.pooled.accuracy == 100.0
