"""Gaussian naive Bayes baseline classifier: its own fields and math; the
fit pipeline and model-file envelope are the SVM's (see `modelfile`)."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import modelfile
from .errors import DegenerateDataError, ModelFormatError
from .evaluation import Fitter
from .features import Dataset, Normalizer, apply_normalizer, check_width, scaled_training_matrix
from .seqio import Label, labels_from_scores

NB_SCHEMA = "gpcr-nb/1"

VARIANCE_FLOOR = 1e-9


@dataclass
class NbModel:
    prior_pos: float
    prior_neg: float
    mean_pos: np.ndarray
    mean_neg: np.ndarray
    var_pos: np.ndarray
    var_neg: np.ndarray
    normalizer: Normalizer | None = None
    train_positive_prior: float | None = None

    @property
    def dim(self) -> int:
        return self.mean_pos.shape[0]


def nb_train(X: np.ndarray, y: np.ndarray) -> NbModel:
    """Class priors from frequencies; per-class, per-feature mean and
    population variance, floored to avoid singular densities."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError(f"bad training shapes: X {X.shape}, y {y.shape}")
    pos = y > 0
    if not pos.any() or pos.all():
        raise DegenerateDataError("training data contains a single class")
    n = len(y)
    return NbModel(
        prior_pos=pos.sum() / n,
        prior_neg=(~pos).sum() / n,
        mean_pos=X[pos].mean(axis=0),
        mean_neg=X[~pos].mean(axis=0),
        var_pos=np.maximum(X[pos].var(axis=0), VARIANCE_FLOOR),
        var_neg=np.maximum(X[~pos].var(axis=0), VARIANCE_FLOOR),
    )


def log_odds(model: NbModel, x: np.ndarray) -> float | np.ndarray:
    """log P(pos | x) - log P(neg | x), up to the shared evidence term, of
    raw feature rows: one float for a 1-D x, n scores for an (n, d) batch.
    The whole batch is scaled with the stored normalizer in one call."""
    x = check_width(x, model.dim)
    rows = np.atleast_2d(x)
    if model.normalizer is not None:
        rows = apply_normalizer(model.normalizer, rows)

    def class_log_likelihood(mean, var):
        return -0.5 * np.sum(
            np.log(2.0 * np.pi * var) + (rows - mean) ** 2 / var, axis=1
        )

    scores = (
        np.log(model.prior_pos)
        - np.log(model.prior_neg)
        + class_log_likelihood(model.mean_pos, model.var_pos)
        - class_log_likelihood(model.mean_neg, model.var_neg)
    )
    return float(scores[0]) if x.ndim == 1 else scores


def nb_predict(model: NbModel, x: np.ndarray) -> Label | list[Label]:
    """Argmax of the class posteriors (log-odds >= 0 is human): one Label
    for a 1-D x, a list for an (n, d) batch."""
    return labels_from_scores(log_odds(model, x))


def nb_fit_dataset(dataset: Dataset, normalize: str = "minmax") -> NbModel:
    """Pipeline fit mirroring the SVM path: normalizer fitted on the
    training rows, the Gaussian model, then the normalizer and the training
    set's human fraction attached to it."""
    X, normalizer = scaled_training_matrix(dataset, normalize)
    model = nb_train(X, dataset.y)
    model.normalizer = normalizer
    model.train_positive_prior = dataset.positive_fraction()
    return model


def nb_fitter(normalize: str = "minmax") -> Fitter:
    """`nb_fit_dataset` on each training split; the predictor labels raw rows."""
    return lambda train_ds: partial(nb_predict, nb_fit_dataset(train_ds, normalize))


def save_nb_model(model: NbModel, sink) -> None:
    payload = {
        "schema": NB_SCHEMA,
        "positive_label": modelfile.POSITIVE_LABEL,
        "priors": [model.prior_pos, model.prior_neg],
        "means": [model.mean_pos.tolist(), model.mean_neg.tolist()],
        "variances": [model.var_pos.tolist(), model.var_neg.tolist()],
        "normalizer": modelfile.normalizer_to_json(model.normalizer),
        "train_positive_prior": model.train_positive_prior,
    }
    modelfile.write_document(payload, sink)


def load_nb_model(doc: dict) -> NbModel:
    """The model in a parsed gpcr-nb/1 document (`modelfile.read_document`)."""
    priors = modelfile.finite_vector(modelfile.require(doc, "priors"), "priors")
    if priors.shape[0] != 2 or priors.min() <= 0:
        raise ModelFormatError("field 'priors' must hold two positive numbers")
    means = modelfile.finite_matrix(modelfile.require(doc, "means"), "means")
    variances = modelfile.finite_matrix(
        modelfile.require(doc, "variances"), "variances"
    )
    if means.shape != variances.shape or means.shape[0] != 2:
        raise ModelFormatError("'means' and 'variances' must be 2 x d arrays")
    normalizer, prior = modelfile.read_common(doc, means.shape[1])
    return NbModel(
        prior_pos=float(priors[0]),
        prior_neg=float(priors[1]),
        mean_pos=means[0],
        mean_neg=means[1],
        var_pos=variances[0],
        var_neg=variances[1],
        normalizer=normalizer,
        train_positive_prior=prior,
    )
