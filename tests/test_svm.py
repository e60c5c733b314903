import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcrsvm import modelfile, svm
from gpcrsvm.errors import DegenerateDataError, ModelFormatError, ModelMismatchError
from gpcrsvm.features import Dataset
from gpcrsvm.svm import (
    SvmConfig,
    decision_function,
    fit_dataset,
    load_model,
    predict,
    rbf_gram,
    save_model,
    score,
    train,
)

import qp_oracle

FINITE = st.floats(min_value=-50, max_value=50, allow_nan=False)


def read_svm(source):
    """Parse a gpcr-svm/1 file and load the model in it."""
    return load_model(modelfile.read_document(source, svm.SVM_SCHEMA))


def random_problem(rng, n=None, d=None):
    n = n or int(rng.integers(6, 21))
    d = d or int(rng.integers(2, 6))
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


# -- kernel ------------------------------------------------------------------


def kernel(x, y, gamma):
    """K(x, y) for one pair of rows, read from rbf_gram."""
    return float(rbf_gram(x, y, gamma)[0, 0])


def test_kernel_of_identical_points_is_one():
    x = np.array([0.3, -1.2, 4.0])
    for gamma in (0.1, 1.0, 10.0):
        assert kernel(x, x, gamma) == 1.0
        assert (np.diag(rbf_gram(np.stack([x, -x, 2 * x]), None, gamma)) == 1.0).all()


def test_kernel_closed_form_value():
    x = np.zeros(4)
    y = np.array([math.sqrt(0.1), 0.0, 0.0, 0.0])  # squared distance 0.1
    assert kernel(x, y, 10.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_kernel_flat_limit():
    x, y = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
    assert kernel(x, y, 1e-15) == pytest.approx(1.0, abs=1e-9)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        rbf_gram(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        rbf_gram(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


@given(
    st.lists(FINITE, min_size=3, max_size=3),
    st.lists(FINITE, min_size=3, max_size=3),
    st.sampled_from([0.1, 1.0, 10.0]),
)
def test_kernel_symmetry_is_exact(xs, ys, gamma):
    x, y = np.array(xs), np.array(ys)
    assert kernel(x, y, gamma) == kernel(y, x, gamma)


def test_gram_matrices_are_positive_semidefinite():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        X = rng.normal(size=(n, 3))
        for gamma in (0.1, 1.0, 10.0):
            K = rbf_gram(X, None, gamma)
            np.testing.assert_allclose(K, K.T, atol=0)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


# -- training ----------------------------------------------------------------


def test_symmetric_two_point_problem():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    model = train(X, y, SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-6))
    assert len(model.dual_coeffs) == 2
    assert model.dual_coeffs[0] == pytest.approx(-model.dual_coeffs[1], abs=1e-12)
    assert decision_function(model, X[0]) > 0
    assert decision_function(model, X[1]) < 0
    assert decision_function(model, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_duplicate_points_with_opposite_labels_hit_the_box():
    rng = np.random.default_rng(5)
    X_sep = np.vstack([rng.normal(size=(5, 2)) + 5, rng.normal(size=(5, 2)) - 5])
    y_sep = np.array([1.0] * 5 + [-1.0] * 5)
    twin = np.array([[0.5, 0.5], [0.5, 0.5]])
    X = np.vstack([X_sep, twin])
    y = np.concatenate([y_sep, [1.0, -1.0]])
    config = SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-6)
    model = train(X, y, config, debug=True)
    alphas = model.diagnostics.alphas_full
    assert alphas[-1] == pytest.approx(config.c, abs=1e-9)
    assert alphas[-2] == pytest.approx(config.c, abs=1e-9)
    # Bound support vectors must sit at or inside the margin.
    f = decision_function(model, twin)
    assert y[-2] * f[0] < 1.0 + 1e-9
    assert y[-1] * f[1] < 1.0 + 1e-9


def test_dual_objective_matches_qp_oracle():
    rng = np.random.default_rng(42)
    X, y = random_problem(rng, n=20, d=5)
    config = SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-6)
    model = train(X, y, config)
    _, _, _, oracle_obj = qp_oracle.oracle_model(X, y, config.gamma, config.c)
    assert model.diagnostics.objective == pytest.approx(oracle_obj, abs=1e-4)


def test_training_predictions_match_qp_oracle():
    rng = np.random.default_rng(1234)
    X, y = random_problem(rng, n=18, d=4)
    config = SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-6)
    model = train(X, y, config)
    _, _, oracle_dec, _ = qp_oracle.oracle_model(X, y, config.gamma, config.c)
    ours = decision_function(model, X)
    agree = np.sum((ours >= 0) == (oracle_dec >= 0))
    assert agree >= math.ceil(0.99 * len(y))


def test_unbound_support_vectors_sit_on_the_margin():
    rng = np.random.default_rng(9)
    X, y = random_problem(rng, n=20, d=3)
    config = SvmConfig(gamma=0.5, c=10.0, kkt_tolerance=1e-6)
    model = train(X, y, config)
    alphas = np.abs(model.dual_coeffs)
    unbound = (alphas > 1e-8 * config.c) & (alphas < config.c * (1 - 1e-8))
    assert unbound.any()
    f = decision_function(model, model.support_vectors[unbound])
    signs = np.sign(model.dual_coeffs[unbound])  # alpha_i y_i has y's sign
    margins = signs * f
    assert np.all(np.abs(margins - 1.0) <= config.kkt_tolerance + 1e-9)


def test_relabeling_negates_decision_function():
    rng = np.random.default_rng(21)
    X, y = random_problem(rng, n=16, d=4)
    config = SvmConfig(gamma=2.0, c=1.0, kkt_tolerance=1e-8)
    model_a = train(X, y, config)
    model_b = train(X, -y, config)
    probe = rng.normal(size=(50, 4))
    np.testing.assert_allclose(
        decision_function(model_a, probe),
        -decision_function(model_b, probe),
        atol=1e-10,
    )


def test_training_is_deterministic():
    rng = np.random.default_rng(33)
    X, y = random_problem(rng, n=15, d=3)
    config = SvmConfig(gamma=1.0, c=1.0)
    a = train(X.copy(), y.copy(), config)
    b = train(X.copy(), y.copy(), config)
    np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
    np.testing.assert_array_equal(a.dual_coeffs, b.dual_coeffs)
    assert a.bias == b.bias


def test_kkt_invariants_hold_after_training():
    rng = np.random.default_rng(77)
    for _ in range(5):
        X, y = random_problem(rng)
        config = SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-5)
        model = train(X, y, config, debug=True)
        diag = model.diagnostics
        alphas = diag.alphas_full
        assert np.all(alphas >= 0.0) and np.all(alphas <= config.c)
        assert abs(diag.balance) <= 1e-8
        assert diag.max_kkt_violation <= config.kkt_tolerance
        assert diag.converged
        history = diag.objective_history
        assert len(history) == diag.updates + 1
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(history, history[1:]))


def test_single_class_input_is_rejected():
    X = np.zeros((4, 2))
    y = np.ones(4)
    with pytest.raises(DegenerateDataError):
        train(X, y, SvmConfig())


def test_non_finite_features_are_rejected():
    X = np.array([[0.0, np.nan], [1.0, 2.0]])
    y = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="non-finite"):
        train(X, y, SvmConfig())


def test_bad_labels_are_rejected():
    X = np.zeros((2, 2))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        train(X, np.array([1.0, 0.0]), SvmConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SvmConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SvmConfig(c=-1.0)
    with pytest.raises(ValueError):
        SvmConfig(kkt_tolerance=0.0)


def test_decision_function_dimension_mismatch():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    model = train(X, y, SvmConfig(gamma=1.0, c=1.0))
    with pytest.raises(ModelMismatchError):
        decision_function(model, np.zeros(3))
    with pytest.raises(ModelMismatchError):
        predict(model, np.zeros((2, 5)))


def test_scoring_rejects_a_non_finite_row():
    model = fit_dataset(toy_dataset(np.random.default_rng(3)), SvmConfig(gamma=1.0))
    rows = np.full((3, 24), 0.5)
    rows[2, 7] = np.inf
    with pytest.raises(ValueError, match="input row 2 is not finite"):
        score(model, rows)
    with pytest.raises(ValueError, match="input row 0 is not finite"):
        predict(model, np.full(24, np.nan))


def test_row_cache_path_matches_dense_gram(monkeypatch):
    # The branches round kernel entries differently, so SMO takes other
    # pairs; at a tight tolerance both must still reach the one optimum
    # (the RBF Gram matrix of distinct points is positive definite).
    rng = np.random.default_rng(12)
    X, y = random_problem(rng, n=120, d=4)
    config = SvmConfig(gamma=1.0, c=1.0, kkt_tolerance=1e-11)
    dense = train(X, y, config).diagnostics
    monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", 50)  # n = 120 takes the LRU rows
    cached = train(X, y, config).diagnostics
    np.testing.assert_allclose(cached.alphas_full, dense.alphas_full, rtol=0, atol=1e-9)
    assert cached.objective == pytest.approx(dense.objective, rel=0, abs=1e-9)
    assert cached.converged and dense.converged


def overlapping_problem(seed, n, d, flip):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    return X, np.where(rng.random(n) < flip, -y, y)


def twin_problem():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(5, 2)) + 5, rng.normal(size=(5, 2)) - 5,
                   [[0.5, 0.5], [0.5, 0.5]]])
    return X, np.array([1.0] * 5 + [-1.0] * 5 + [1.0, -1.0])


# (problem, config, FULL_GRAM_LIMIT, updates, scans, converged, objective),
# recorded from the WSS2 solver. Any change to the pair-selection rule moves
# these counts.
SELECTION_PINS = [
    pytest.param(lambda: overlapping_problem(102, 200, 5, 0.2),
                 dict(gamma=0.5, c=10.0), None,
                 473, 474, True, 225.65168262713766, id="dense"),
    pytest.param(twin_problem, dict(gamma=1.0, c=1.0, kkt_tolerance=1e-6), None,
                 33, 34, True, 5.095611300206529, id="zero-curvature"),
    # The gap cannot close to 2e-15 in floating point: the solver stops
    # unconverged once neither the WSS2 pair nor the first-order partner
    # can move.
    pytest.param(lambda: overlapping_problem(200, 80, 3, 0.3),
                 dict(gamma=10.0, c=1.0, kkt_tolerance=1e-15), None,
                 308, 309, False, 39.523191523304654, id="tight-unconverged"),
    pytest.param(lambda: overlapping_problem(103, 120, 4, 0.15),
                 dict(gamma=1.0, c=1.0), 50,
                 164, 165, True, 41.63533541649065, id="row-cache"),
    pytest.param(lambda: overlapping_problem(104, 150, 3, 0.25),
                 dict(gamma=2.0, c=100.0), 100,
                 520, 521, True, 456.6770007313425, id="row-cache-large-c"),
    # Near rounding level the WSS2 pair can stall while the first-order
    # partner (the argmin of G) still moves; here that fallback moves
    # before both stall.
    pytest.param(lambda: overlapping_problem(10, 40, 3, 0.3),
                 dict(gamma=0.5, c=100.0, kkt_tolerance=1e-13), None,
                 1016, 1017, False, 112.69714484449644, id="partner-fallback"),
]


@pytest.mark.parametrize(
    "problem, config, limit, updates, scans, converged, objective", SELECTION_PINS
)
def test_selection_rule_is_pinned(
    monkeypatch, problem, config, limit, updates, scans, converged, objective
):
    if limit is not None:
        monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", limit)
    diag = train(*problem(), SvmConfig(**config)).diagnostics
    assert (diag.updates, diag.scans, diag.converged) == (updates, scans, converged)
    assert diag.objective == pytest.approx(objective, rel=1e-12, abs=0)


def gap_slack(diag, bias):
    """Rounding allowance of the duality gap: sum(alpha * y) is zero only
    to rounding, and P and D are sums of n terms each."""
    return abs(bias * diag.balance) + 1e-12 * max(1.0, abs(diag.primal))


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("gamma, c", [(0.5, 1.0), (2.0, 10.0), (10.0, 100.0)])
def test_duality_gap_is_bounded_by_the_kkt_violations(gamma, c, tol):
    # P - D = sum_i alpha_i (m_i - 1) + C max(0, 1 - m_i) with m_i = y_i f_i,
    # and each term lies in [0, C * violation_i].
    problems = [overlapping_problem(seed, 90, 4, 0.2) for seed in (301, 302)]
    problems += [random_problem(np.random.default_rng(7), n=20, d=3), twin_problem()]
    for X, y in problems:
        model = train(X, y, SvmConfig(gamma=gamma, c=c, kkt_tolerance=tol))
        diag = model.diagnostics
        beta = diag.alphas_full * y
        f = rbf_gram(X, None, gamma) @ beta + model.bias
        viol = svm.kkt_violations(diag.alphas_full, y, f, c)
        slack = gap_slack(diag, model.bias)
        assert diag.duality_gap == diag.primal - diag.objective
        assert -slack <= diag.duality_gap <= c * float(np.sum(viol)) + slack


# (case id, dual D, primal P) from the first-order selection rule that
# preceded WSS2, on the SELECTION_PINS problems. Both solvers' [D, P]
# intervals contain the one optimum, so they must overlap.
PRIOR_INTERVALS = {
    "dense": (225.65165003896166, 225.97326860146524),
    "zero-curvature": (5.09561130020678, 5.095613775253514),
    "tight-unconverged": (39.52319152330466, 39.52319152331136),
    "row-cache": (41.63533688389806, 41.64912576325325),
    "row-cache-large-c": (456.67695797395885, 459.9887297459034),
    "partner-fallback": (112.69714484449656, 112.69714484507988),
}


@pytest.mark.parametrize("problem, config, limit, prior", [
    pytest.param(*pin.values[:3], PRIOR_INTERVALS[pin.id], id=pin.id)
    for pin in SELECTION_PINS
])
def test_duality_interval_overlaps_the_prior_solver(
    monkeypatch, problem, config, limit, prior
):
    if limit is not None:
        monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", limit)
    model = train(*problem(), SvmConfig(**config))
    diag = model.diagnostics
    slack = gap_slack(diag, model.bias)
    prior_dual, prior_primal = prior
    assert diag.objective <= prior_primal + slack
    assert prior_dual <= diag.primal + slack


@pytest.mark.parametrize("limit", [2000, 50], ids=["dense", "row-cache"])
def test_fit_frees_its_kernel_without_the_cycle_collector(monkeypatch, limit):
    caches = []

    class RecordedCache(svm._KernelCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(weakref.ref(self))

    monkeypatch.setattr(svm, "_KernelCache", RecordedCache)
    monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", limit)
    X, y = overlapping_problem(106, 120, 4, 0.2)
    gc.disable()
    try:
        train(X, y, SvmConfig(gamma=1.0, c=1.0), debug=True)
        assert len(caches) == 1 and caches[0]() is None
    finally:
        gc.enable()


def test_batch_scores_equal_row_by_row_across_block_seams():
    rng = np.random.default_rng(21)
    model = fit_dataset(toy_dataset(rng), SvmConfig(gamma=1.0, c=1.0))
    probe = rng.uniform(0.0, 1.0, size=(2 * svm.SCORE_BLOCK + 1, 24))
    batch = decision_function(model, probe)
    assert batch.shape == (len(probe),)
    # BLAS rounds a matrix-matrix product differently from a matrix-vector
    # one (and by block height), so rows agree to rounding, not bit for bit.
    rows = np.array([decision_function(model, x) for x in probe])
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)


# -- pipeline fit ------------------------------------------------------------


def toy_dataset(rng, n_per_class=10, spread=0.5):
    rows = []
    for i in range(n_per_class):
        values = np.concatenate([rng.normal(0.2, 0.02, size=20), [50, 10, 20, 8]])
        rows.append(values + rng.normal(0, spread * 0.01, 24))
    for i in range(n_per_class):
        values = np.concatenate([rng.normal(0.8, 0.02, size=20), [200, 30, 5, 40]])
        rows.append(values + rng.normal(0, spread * 0.01, 24))
    ids = [f"H{i}" for i in range(n_per_class)] + [f"O{i}" for i in range(n_per_class)]
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return Dataset(tuple(ids), np.stack(rows), y)


def test_fit_dataset_normalizes_and_stores_prior():
    rng = np.random.default_rng(3)
    dataset = toy_dataset(rng)
    model = fit_dataset(dataset, SvmConfig(gamma=10.0, c=1.0))
    assert model.normalizer is not None
    assert model.train_positive_prior == 0.5
    labels = predict(model, dataset.X)
    assert labels == dataset.labels


def test_fit_dataset_without_normalization():
    rng = np.random.default_rng(4)
    dataset = toy_dataset(rng)
    model = fit_dataset(dataset, SvmConfig(gamma=0.01, c=1.0), normalize="none")
    assert model.normalizer is None
    labels = predict(model, dataset.X)
    assert labels == dataset.labels


def test_fit_dataset_rejects_unknown_mode():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="normalization"):
        fit_dataset(toy_dataset(rng), normalize="zscore")


# -- persistence -------------------------------------------------------------


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(101)
    dataset = toy_dataset(rng)
    model = fit_dataset(dataset, SvmConfig(gamma=10.0, c=1.0))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = read_svm(path)
    probe = rng.normal(0.5, 0.3, size=(100, 24))
    original = decision_function(model, probe)
    restored = decision_function(loaded, probe)
    np.testing.assert_allclose(original, restored, rtol=0, atol=1e-12)
    assert loaded.train_positive_prior == model.train_positive_prior


def test_write_document_leaves_no_file_for_non_finite_payload(tmp_path):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        modelfile.write_document({"schema": "gpcr-svm/1", "bias": math.nan}, path)
    assert not path.exists()


def test_load_rejects_truncated_file():
    text = '{"schema": "gpcr-svm/1", "gamma": 10.0, "c": 1.'
    with pytest.raises(ModelFormatError, match="not a valid model file"):
        read_svm(io.StringIO(text))


def test_load_rejects_unknown_schema_version():
    with pytest.raises(ModelFormatError, match="schema"):
        read_svm(io.StringIO('{"schema": "gpcr-svm/99"}'))


def test_load_rejects_missing_field():
    text = '{"schema": "gpcr-svm/1", "gamma": 10.0}'
    with pytest.raises(ModelFormatError, match="missing field 'c'"):
        read_svm(io.StringIO(text))


def test_load_rejects_non_finite_numbers():
    text = (
        '{"schema": "gpcr-svm/1", "gamma": 10.0, "c": 1.0, "bias": NaN,'
        ' "positive_label": "human", "normalizer": null,'
        ' "support_vectors": [[0.0]], "dual_coeffs": [1.0]}'
    )
    with pytest.raises(ModelFormatError, match="non-finite"):
        read_svm(io.StringIO(text))


def test_load_rejects_inconsistent_shapes():
    text = (
        '{"schema": "gpcr-svm/1", "gamma": 10.0, "c": 1.0, "bias": 0.0,'
        ' "positive_label": "human", "normalizer": null,'
        ' "support_vectors": [[0.0, 1.0]], "dual_coeffs": [1.0, 2.0]}'
    )
    with pytest.raises(ModelMismatchError):
        read_svm(io.StringIO(text))
