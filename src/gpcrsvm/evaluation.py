"""Confusion matrix, derived statistics, holdout and cross-validation.

The positive class is always 'human'. Percentages are reported to four
decimal places; error metrics follow the usual conventions for hard 0/1
predictions against a constant-prior baseline predictor.
"""

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDataError
from .features import Dataset
from .seqio import Label

MCC_DEGENERATE = "MCC_DEGENERATE"
KAPPA_DEGENERATE = "KAPPA_DEGENERATE"
SENSITIVITY_UNDEFINED = "SENSITIVITY_UNDEFINED"
SPECIFICITY_UNDEFINED = "SPECIFICITY_UNDEFINED"

# A fitted predictor maps an (n, 24) matrix of raw feature rows to n Labels
# in one call; a fitter builds one from a training dataset. Holdout and
# cross-validation are generic over this pair and score each test matrix once.
Predictor = Callable[[np.ndarray], Sequence[Label]]
Fitter = Callable[[Dataset], Predictor]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def actual_pos(self) -> int:
        return self.tp + self.fn

    @property
    def actual_neg(self) -> int:
        return self.tn + self.fp


def confusion(actuals, predictions) -> ConfusionMatrix:
    """Count tp/fp/fn/tn over two equal-length label sequences."""
    actuals = list(actuals)
    predictions = list(predictions)
    if not actuals:
        raise ValueError("cannot build a confusion matrix from no instances")
    if len(actuals) != len(predictions):
        raise ValueError(
            f"{len(actuals)} actuals vs {len(predictions)} predictions"
        )
    tp = fp = fn = tn = 0
    for a, p in zip(actuals, predictions):
        if a is Label.HUMAN:
            if p is Label.HUMAN:
                tp += 1
            else:
                fn += 1
        else:
            if p is Label.HUMAN:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


@dataclass(frozen=True)
class BasicMetrics:
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None


def basic_metrics(matrix: ConfusionMatrix) -> BasicMetrics:
    """Accuracy, sensitivity, specificity in percent; None when the
    denominator is zero."""
    m = matrix
    return BasicMetrics(
        accuracy=100.0 * (m.tp + m.tn) / m.total if m.total else None,
        sensitivity=100.0 * m.tp / (m.tp + m.fn) if m.tp + m.fn else None,
        specificity=100.0 * m.tn / (m.tn + m.fp) if m.tn + m.fp else None,
    )


def mcc(matrix: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0.0 when any marginal is empty."""
    m = matrix
    denom_sq = (m.tp + m.fp) * (m.tp + m.fn) * (m.tn + m.fp) * (m.tn + m.fn)
    if denom_sq == 0:
        return 0.0
    return (m.tp * m.tn - m.fp * m.fn) / math.sqrt(denom_sq)


def mcc_is_degenerate(matrix: ConfusionMatrix) -> bool:
    m = matrix
    return 0 in (m.tp + m.fp, m.tp + m.fn, m.tn + m.fp, m.tn + m.fn)


def kappa(matrix: ConfusionMatrix) -> float:
    """Cohen's kappa from observed vs chance agreement; 0.0 when chance
    agreement is total."""
    m = matrix
    n = m.total
    if n == 0:
        raise ValueError("kappa needs at least one instance")
    p_obs = (m.tp + m.tn) / n
    p_exp = ((m.tp + m.fp) * (m.tp + m.fn) + (m.fn + m.tn) * (m.fp + m.tn)) / n**2
    if p_exp == 1.0:
        return 0.0
    return (p_obs - p_exp) / (1.0 - p_exp)


def kappa_is_degenerate(matrix: ConfusionMatrix) -> bool:
    m = matrix
    n = m.total
    return ((m.tp + m.fp) * (m.tp + m.fn) + (m.fn + m.tn) * (m.fp + m.tn)) == n**2


@dataclass(frozen=True)
class ErrorMetrics:
    mae: float
    rmse: float
    rae: float  # percent
    rrse: float  # percent


def error_metrics(actuals, predictions, baseline_prior: float) -> ErrorMetrics:
    """Absolute/squared error of 0/1 predictions, absolute and relative to
    the constant predictor that always outputs the training prior."""
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if a.shape != p.shape or a.size == 0:
        raise ValueError("actuals and predictions must be equal-length, non-empty")
    if not 0.0 < baseline_prior < 1.0:
        raise DegenerateDataError(
            f"baseline prior must lie in (0, 1), got {baseline_prior}"
        )
    abs_err = np.abs(p - a)
    sq_err = (p - a) ** 2
    abs_base = np.abs(baseline_prior - a)
    sq_base = (baseline_prior - a) ** 2
    return ErrorMetrics(
        mae=float(abs_err.mean()),
        rmse=float(np.sqrt(sq_err.mean())),
        rae=float(100.0 * abs_err.sum() / abs_base.sum()),
        rrse=float(100.0 * np.sqrt(sq_err.sum() / sq_base.sum())),
    )


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    actual: Label
    predicted: Label


@dataclass(frozen=True)
class EvaluationReport:
    matrix: ConfusionMatrix
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    mcc: float
    kappa: float
    mae: float
    rmse: float
    rae: float | None
    rrse: float | None
    baseline_prior: float | None
    predictions: tuple[PredictionRecord, ...] = ()
    flags: tuple[str, ...] = ()


def report_from_matrix(
    matrix: ConfusionMatrix,
    baseline_prior: float | None = None,
    predictions: tuple[PredictionRecord, ...] = (),
) -> EvaluationReport:
    """Full statistics block for hard 0/1 predictions summarized by a
    confusion matrix. rae/rrse need a training-set prior; without one they
    are left unset."""
    bm = basic_metrics(matrix)
    flags = []
    if bm.sensitivity is None:
        flags.append(SENSITIVITY_UNDEFINED)
    if bm.specificity is None:
        flags.append(SPECIFICITY_UNDEFINED)
    if mcc_is_degenerate(matrix):
        flags.append(MCC_DEGENERATE)
    if kappa_is_degenerate(matrix):
        flags.append(KAPPA_DEGENERATE)
    # Reconstruct the 0/1 series; hard predictions make this lossless.
    actuals = [1.0] * matrix.tp + [1.0] * matrix.fn + [0.0] * matrix.fp + [0.0] * matrix.tn
    preds = [1.0] * matrix.tp + [0.0] * matrix.fn + [1.0] * matrix.fp + [0.0] * matrix.tn
    rae = rrse = None
    if baseline_prior is not None:
        err = error_metrics(actuals, preds, baseline_prior)
        mae, rmse, rae, rrse = err.mae, err.rmse, err.rae, err.rrse
    else:
        mae = (matrix.fp + matrix.fn) / matrix.total
        rmse = math.sqrt(mae)
    return EvaluationReport(
        matrix=matrix,
        accuracy=bm.accuracy,
        sensitivity=bm.sensitivity,
        specificity=bm.specificity,
        mcc=mcc(matrix),
        kappa=kappa(matrix),
        mae=mae,
        rmse=rmse,
        rae=rae,
        rrse=rrse,
        baseline_prior=baseline_prior,
        predictions=predictions,
        flags=tuple(flags),
    )


def evaluate_predictions(
    records, baseline_prior: float | None = None
) -> EvaluationReport:
    records = tuple(records)
    matrix = confusion(
        [r.actual for r in records], [r.predicted for r in records]
    )
    return report_from_matrix(matrix, baseline_prior, predictions=records)


def predict_records(
    predictor: Predictor, dataset: Dataset
) -> tuple[PredictionRecord, ...]:
    """Label every instance of the dataset with one predictor call."""
    labels = predictor(dataset.X)
    return tuple(
        PredictionRecord(seq_id, actual, p)
        for seq_id, actual, p in zip(dataset.ids, dataset.labels, labels, strict=True)
    )


def _apportion(total: int, sizes: list[int]) -> list[int]:
    """Largest-remainder shares of `total`, proportional to sizes."""
    grand = sum(sizes)
    quotas = [total * s / grand for s in sizes]
    shares = [int(math.floor(q)) for q in quotas]
    leftovers = total - sum(shares)
    order = sorted(range(len(sizes)), key=lambda i: (shares[i] - quotas[i], i))
    for i in order[:leftovers]:
        shares[i] += 1
    return shares


def _indices_by_class(dataset: Dataset) -> list[list[int]]:
    pos = dataset.y > 0
    return [np.flatnonzero(pos).tolist(), np.flatnonzero(~pos).tolist()]


def holdout_split(
    dataset: Dataset, train_count: int, seed: int
) -> tuple[Dataset, Dataset]:
    """Stratified split into train_count training instances and the rest;
    class proportions match the full set within one instance per class."""
    n = len(dataset)
    if not 0 < train_count < n:
        raise ValueError(f"train_count must be in (0, {n}), got {train_count}")
    groups = _indices_by_class(dataset)
    shares = _apportion(train_count, [len(g) for g in groups])
    for g, share in zip(groups, shares):
        if share < 1 or len(g) - share < 1:
            raise DegenerateDataError(
                "split would leave a class empty in one part"
            )
    rng = random.Random(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for g, share in zip(groups, shares):
        shuffled = g.copy()
        rng.shuffle(shuffled)
        train_idx.extend(shuffled[:share])
        test_idx.extend(shuffled[share:])
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


def holdout(
    dataset: Dataset, train_count: int, fit: Fitter, seed: int
) -> EvaluationReport:
    """Fit on a stratified split of train_count instances and report on the
    rest; rae/rrse use the training part's prior."""
    train_ds, test_ds = holdout_split(dataset, train_count, seed)
    return evaluate_predictions(
        predict_records(fit(train_ds), test_ds),
        baseline_prior=train_ds.positive_fraction(),
    )


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[list[int]]:
    """Deterministic stratified k-fold partition: per-class fold sizes
    differ by at most one; folds are disjoint and cover the dataset."""
    n = len(dataset)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n:
        raise ValueError(f"k = {k} exceeds the {n} available instances")
    groups = _indices_by_class(dataset)
    if any(len(g) < 2 for g in groups):
        raise DegenerateDataError(
            "every class needs at least 2 instances for cross-validation"
        )
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    start = 0  # rotate which folds take each class's remainder
    for g in groups:
        shuffled = g.copy()
        rng.shuffle(shuffled)
        base, extra = divmod(len(shuffled), k)
        cursor = 0
        for f in range(k):
            size = base + (1 if (f - start) % k < extra else 0)
            folds[f].extend(shuffled[cursor : cursor + size])
            cursor += size
        start = (start + extra) % k
    return [sorted(f) for f in folds]


@dataclass(frozen=True)
class CvResult:
    pooled: EvaluationReport
    folds: tuple[EvaluationReport, ...]


def cross_validate(dataset: Dataset, k: int, fit: Fitter, seed: int) -> CvResult:
    """Stratified k-fold cross-validation. Each fold fits on the other
    k-1 folds (normalization included, via the fitter) and predicts the
    held-out fold in one call; per-instance predictions are pooled into a
    single confusion matrix. The rae/rrse baseline uses each fold's own training
    prior."""
    folds = stratified_folds(dataset, k, seed)
    all_records: list[PredictionRecord] = []
    fold_reports: list[EvaluationReport] = []
    abs_num = abs_den = sq_num = sq_den = 0.0
    priors: list[float] = []
    for f, test_idx in enumerate(folds):
        train_idx = [i for g, fold in enumerate(folds) if g != f for i in fold]
        train_ds = dataset.subset(sorted(train_idx))
        test_ds = dataset.subset(test_idx)
        records = predict_records(fit(train_ds), test_ds)
        prior = train_ds.positive_fraction()
        priors.append(prior)
        all_records.extend(records)
        fold_reports.append(evaluate_predictions(records, baseline_prior=prior))
        for rec in records:
            a, p = rec.actual.as01, rec.predicted.as01
            abs_num += abs(p - a)
            abs_den += abs(prior - a)
            sq_num += (p - a) ** 2
            sq_den += (prior - a) ** 2
    pooled_matrix = confusion(
        [r.actual for r in all_records], [r.predicted for r in all_records]
    )
    pooled = report_from_matrix(pooled_matrix, predictions=tuple(all_records))
    pooled = replace(
        pooled,
        rae=100.0 * abs_num / abs_den,
        rrse=100.0 * math.sqrt(sq_num / sq_den),
        baseline_prior=sum(priors) / len(priors),
    )
    return CvResult(pooled=pooled, folds=tuple(fold_reports))


def _fmt(value: float | None, suffix: str = "") -> str:
    return "UNDEFINED" if value is None else f"{value:.4f}{suffix}"


def render_text(report: EvaluationReport) -> str:
    """Human-readable statistics block."""
    m = report.matrix
    wrong = None if report.accuracy is None else 100.0 - report.accuracy
    rows = [
        ("Correctly Classified Instances", str(m.tp + m.tn),
         _fmt(report.accuracy, " %")),
        ("Incorrectly Classified Instances", str(m.fp + m.fn), _fmt(wrong, " %")),
        ("Kappa statistic", _fmt(report.kappa), ""),
        ("Mean absolute error", _fmt(report.mae), ""),
        ("Root mean squared error", _fmt(report.rmse), ""),
        ("Relative absolute error", _fmt(report.rae, " %"), ""),
        ("Root relative squared error", _fmt(report.rrse, " %"), ""),
        ("Total Number of Instances", str(m.total), ""),
        ("Sensitivity", _fmt(report.sensitivity, " %"), ""),
        ("Specificity", _fmt(report.specificity, " %"), ""),
        ("MCC", _fmt(report.mcc), ""),
        ("Confusion matrix (tp fp fn tn)", f"{m.tp} {m.fp} {m.fn} {m.tn}", ""),
    ]
    if report.flags:
        rows.append(("Flags", " ".join(report.flags), ""))
    lines = [
        (f"{label:<34}{value:>12}    {extra}" if extra else f"{label:<34}{value:>12}")
        for label, value, extra in rows
    ]
    return "\n".join(lines) + "\n"


def report_to_dict(report: EvaluationReport) -> dict:
    m = report.matrix
    return {
        "matrix": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
        "accuracy": report.accuracy,
        "sensitivity": report.sensitivity,
        "specificity": report.specificity,
        "mcc": report.mcc,
        "kappa": report.kappa,
        "mae": report.mae,
        "rmse": report.rmse,
        "rae": report.rae,
        "rrse": report.rrse,
        "baseline_prior": report.baseline_prior,
        "flags": list(report.flags),
        "predictions": [
            {"id": r.id, "actual": r.actual.value, "predicted": r.predicted.value}
            for r in report.predictions
        ],
    }


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), indent=1) + "\n"
