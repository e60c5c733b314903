import io

import numpy as np
import pytest

from gpcrsvm import modelfile
from gpcrsvm.baseline import (
    NB_SCHEMA,
    VARIANCE_FLOOR,
    load_nb_model,
    log_odds,
    nb_fit_dataset,
    nb_predict,
    nb_train,
    save_nb_model,
)
from gpcrsvm.errors import DegenerateDataError, ModelFormatError, ModelMismatchError
from gpcrsvm.seqio import Label
from gpcrsvm.svm import SCORE_BLOCK

from test_svm import toy_dataset


def read_nb(source):
    """Parse a gpcr-nb/1 file and load the model in it."""
    return load_nb_model(modelfile.read_document(source, NB_SCHEMA))


def test_nb_train_basic_statistics():
    X = np.array([[0.0], [2.0], [10.0], [12.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = nb_train(X, y)
    assert model.prior_pos == 0.5 and model.prior_neg == 0.5
    assert model.mean_pos[0] == 1.0 and model.mean_neg[0] == 11.0
    assert model.var_pos[0] == 1.0 and model.var_neg[0] == 1.0  # population variance


def test_nb_variance_floor():
    X = np.array([[5.0, 1.0], [5.0, 3.0], [0.0, 1.0], [1.0, 3.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = nb_train(X, y)
    assert model.var_pos[0] == VARIANCE_FLOOR
    assert model.var_pos[1] == 1.0


def test_nb_train_rejects_empty_and_single_class():
    with pytest.raises(ValueError):
        nb_train(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DegenerateDataError):
        nb_train(np.zeros((3, 2)), np.ones(3))


def test_nb_predict_class_means():
    X = np.array([[0.0], [2.0], [10.0], [12.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = nb_train(X, y)
    assert nb_predict(model, np.array([1.0])) is Label.HUMAN
    assert nb_predict(model, np.array([11.0])) is Label.OTHER


def test_nb_tie_goes_to_positive():
    X = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = nb_train(X, y)  # identical class models
    assert log_odds(model, np.array([0.3])) == 0.0
    assert nb_predict(model, np.array([0.3])) is Label.HUMAN


def test_identically_distributed_feature_changes_nothing():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    y = np.array([1.0, -1.0] * 15)
    base = nb_train(X, y)
    # Append a feature whose per-class mean and variance are identical by
    # construction; its likelihood terms must cancel in the log odds.
    extra = np.zeros((30, 1))
    extra[y > 0] = np.linspace(-1, 1, 15)[:, None]
    extra[y < 0] = np.linspace(-1, 1, 15)[:, None]
    wide = nb_train(np.hstack([X, extra]), y)
    assert wide.mean_pos[4] == wide.mean_neg[4]
    assert wide.var_pos[4] == wide.var_neg[4]
    np.testing.assert_array_equal(wide.mean_pos[:4], base.mean_pos)
    probe = rng.normal(size=(20, 4))
    probe_wide = np.hstack([probe, np.full((20, 1), 0.25)])
    np.testing.assert_allclose(
        log_odds(base, probe), log_odds(wide, probe_wide), atol=1e-12
    )
    assert nb_predict(base, probe) == nb_predict(wide, probe_wide)


def test_well_separated_classes_classify_perfectly():
    rng = np.random.default_rng(13)
    n = 40
    X_pos = rng.normal(loc=0.0, scale=1.0, size=(n, 3))
    X_neg = rng.normal(loc=20.0, scale=1.0, size=(n, 3))  # 20 sigma apart
    X = np.vstack([X_pos, X_neg])
    y = np.array([1.0] * n + [-1.0] * n)
    model = nb_train(X, y)
    preds = nb_predict(model, X)
    expected = [Label.HUMAN] * n + [Label.OTHER] * n
    assert preds == expected


def test_log_odds_shift_invariance():
    # Posterior comparison only depends on the score difference, which is
    # what log_odds returns; shifting both class scores cancels exactly.
    X = np.array([[0.0], [2.0], [10.0], [12.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = nb_train(X, y)
    x = np.array([4.9])
    assert nb_predict(model, x) is (
        Label.HUMAN if log_odds(model, x) >= 0 else Label.OTHER
    )


def test_nb_dimension_mismatch():
    model = nb_train(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ModelMismatchError):
        nb_predict(model, np.zeros(3))


def test_nb_fit_dataset_pipeline():
    rng = np.random.default_rng(3)
    dataset = toy_dataset(rng)
    model = nb_fit_dataset(dataset)
    assert model.normalizer is not None
    assert model.train_positive_prior == 0.5
    preds = nb_predict(model, dataset.X)
    assert preds == dataset.labels


def test_nb_scoring_rejects_a_non_finite_row():
    model = nb_fit_dataset(toy_dataset(np.random.default_rng(3)))
    rows = np.full((3, 24), 0.5)
    rows[1, 4] = np.nan
    with pytest.raises(ValueError, match="input row 1 is not finite"):
        log_odds(model, rows)
    with pytest.raises(ValueError, match="input row 1 is not finite"):
        nb_predict(model, rows)


def test_batch_log_odds_equal_row_by_row_across_block_seams():
    rng = np.random.default_rng(23)
    model = nb_fit_dataset(toy_dataset(rng))
    probe = rng.normal(0.5, 0.3, size=(2 * SCORE_BLOCK + 1, 24))
    batch = log_odds(model, probe)
    assert batch.shape == (len(probe),)
    assert (batch == np.array([log_odds(model, x) for x in probe])).all()


def test_nb_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    dataset = toy_dataset(rng)
    model = nb_fit_dataset(dataset)
    path = tmp_path / "nb.json"
    save_nb_model(model, path)
    loaded = read_nb(path)
    probe = rng.normal(0.5, 0.3, size=(50, 24))
    np.testing.assert_allclose(
        log_odds(model, probe), log_odds(loaded, probe), rtol=0, atol=1e-12
    )
    assert nb_predict(model, probe) == nb_predict(loaded, probe)


def test_nb_load_rejects_wrong_schema():
    with pytest.raises(ModelFormatError, match="schema"):
        read_nb(io.StringIO('{"schema": "gpcr-svm/1"}'))


def test_nb_load_rejects_bad_priors():
    text = (
        '{"schema": "gpcr-nb/1", "positive_label": "human", "priors": [1.0],'
        ' "means": [[0.0], [0.0]], "variances": [[1.0], [1.0]],'
        ' "normalizer": null}'
    )
    with pytest.raises(ModelFormatError, match="priors"):
        read_nb(io.StringIO(text))
