"""Soft-margin binary SVM with an RBF kernel, trained by sequential
minimal optimization.

The trainer solves the dual problem

    max  sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,   sum_i alpha_i y_i = 0

by repeatedly picking a pair of multipliers that violates the optimality
conditions and solving the two-variable subproblem analytically. Pairs are
chosen by the second-order working-set selection (WSS2) of Fan, Chen & Lin
(JMLR 6, 2005), as in LIBSVM: with G_i = y_i - sum_j alpha_j y_j K_ij, the
first multiplier i maximizes G over the points whose y_i alpha_i can still
grow, and the second j, among the points whose y_j alpha_j can still shrink
and G_j < G_i, maximizes the unclipped objective gain
(G_i - G_j)^2 / (K_ii + K_jj - 2 K_ij). Ties go to the lowest index, so
training is deterministic. If that pair cannot move, the first-order partner
(the argmin of G) is tried. Training stops when the gap max G_i - min G_j
is at most 2 * tol, or unconverged when neither pair moves or the update
cap is reached.

`fit_dataset` trains on `features.scaled_training_matrix` of a dataset and
attaches the normalizer and training prior to the model; `fitter` wraps it
as an `evaluation.Fitter`. The model file's shared fields are `modelfile`'s.
Scoring takes whole matrices: `score` scales a batch of raw rows in one call,
`decision_function` scores it in blocks of SCORE_BLOCK (256) rows so the
kernel block stays within 256 x n_SV floats, and `predict` labels the scores.
"""

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import modelfile
from .errors import DegenerateDataError, ModelMismatchError
from .evaluation import Fitter
from .features import Dataset, Normalizer, apply_normalizer, check_width, scaled_training_matrix
from .seqio import Label, labels_from_scores

SVM_SCHEMA = "gpcr-svm/1"

# Precompute the full Gram matrix up to this many points; above it, fall
# back to an LRU row cache.
FULL_GRAM_LIMIT = 2000

SCORE_BLOCK = 256  # kernel rows per block when scoring or on the row-cache path

_ETA_EPS = 1e-12  # below this, treat the pair curvature as zero (LIBSVM's tau)
_STEP_EPS = 1e-12  # relative alpha movement that counts as progress
_OBJ_SLACK = 1e-9  # tolerated per-update objective decrease (debug mode)


def rbf_gram(X: np.ndarray, Y: np.ndarray | None, gamma: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-gamma * ||X_i - Y_j||^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"kernel arguments differ in dimension: {X.shape[1]} vs {Y.shape[1]}"
        )
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * X @ Y.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _blocked_expansion(
    X: np.ndarray, Y: np.ndarray, gamma: float, coeffs: np.ndarray
) -> np.ndarray:
    """rbf_gram(X, Y, gamma) @ coeffs, built SCORE_BLOCK rows of X at a time."""
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], SCORE_BLOCK):
        block = X[start : start + SCORE_BLOCK]
        out[start : start + len(block)] = rbf_gram(block, Y, gamma) @ coeffs
    return out


@dataclass(frozen=True)
class SvmConfig:
    gamma: float = 10.0
    c: float = 1.0
    kkt_tolerance: float = 1e-3

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.kkt_tolerance > 0:
            raise ValueError(
                f"kkt_tolerance must be positive, got {self.kkt_tolerance}"
            )


@dataclass
class TrainingDiagnostics:
    updates: int
    scans: int
    converged: bool
    objective: float  # dual objective D
    primal: float  # primal objective P of (beta, bias) with hinge slacks
    duality_gap: float  # P - D >= 0; at most C * sum of KKT violations
    max_kkt_violation: float
    balance: float  # sum(alpha * y) before pruning
    alphas_full: np.ndarray  # all multipliers, zero entries included
    objective_history: list[float] | None = None


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # (m, d), in normalized feature space
    dual_coeffs: np.ndarray  # (m,), alpha_i * y_i
    bias: float
    config: SvmConfig
    normalizer: Normalizer | None = None
    train_positive_prior: float | None = None
    diagnostics: TrainingDiagnostics | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]


class _KernelCache:
    """Row access to the Gram matrix: dense up to FULL_GRAM_LIMIT points,
    LRU-cached rows beyond that. `row` holds no reference back to the cache,
    so reference counting frees each fit's kernel as soon as the fit ends."""

    def __init__(self, X: np.ndarray, gamma: float, full_limit: int):
        self.X = X
        self.gamma = gamma
        if X.shape[0] <= full_limit:
            self._matrix = rbf_gram(X, None, gamma)
            self.row = self._matrix.__getitem__
        else:
            self._matrix = None
            self.row = lru_cache(maxsize=4096)(
                lambda i: rbf_gram(X[i : i + 1], X, gamma)[0]
            )

    def decision_without_bias(self, beta: np.ndarray) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix @ beta
        return _blocked_expansion(self.X, self.X, self.gamma, beta)


def kkt_violations(
    alpha: np.ndarray, y: np.ndarray, decision: np.ndarray, c: float
) -> np.ndarray:
    """Per-point violation of the dual optimality conditions, in margin
    units, given the full decision values f(x_i) (bias included)."""
    r = y * (decision - y)
    bound_tol = 1e-8 * c
    viol = np.zeros_like(alpha)
    can_grow = alpha < c - bound_tol
    can_shrink = alpha > bound_tol
    viol[can_grow] = np.maximum(viol[can_grow], -r[can_grow])
    viol[can_shrink] = np.maximum(viol[can_shrink], r[can_shrink])
    return viol


class _SmoSolver:
    def __init__(self, X, y, config: SvmConfig, debug: bool):
        self.y = y
        self.pos = y > 0
        self.n = X.shape[0]
        self.c = config.c
        self.tol = config.kkt_tolerance
        self.kernel = _KernelCache(X, config.gamma, FULL_GRAM_LIMIT)
        self.alpha = np.zeros(self.n)
        self.bias = 0.0
        # Error cache: E_i = f(x_i) - y_i with the current alpha and bias.
        self.errors = self.bias - y.astype(float)
        self._delta = np.empty((2, self.n))  # terms of one error update
        self.bound_tol = 1e-8 * self.c
        self.debug = debug
        self.history: list[float] = [0.0] if debug else []
        self.updates = 0
        self.scans = 0

    # -- bias-free optimality bookkeeping ---------------------------------
    # Feasible biases satisfy b >= G_i on the "lower" set and b <= G_i on
    # the "upper" set, where G_i = y_i - sum_j alpha_j y_j K_ij = bias - E_i.
    # Optimality within tolerance <=> max(lower) - min(upper) <= 2 * tol.

    def _sets(self):
        """Masks lower and upper for the current alpha."""
        can_grow = self.alpha < self.c - self.bound_tol
        can_shrink = self.alpha > self.bound_tol
        lower = (self.pos & can_grow) | (~self.pos & can_shrink)
        upper = (self.pos & can_shrink) | (~self.pos & can_grow)
        return lower, upper

    # -- pair updates ------------------------------------------------------

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        # Python floats: the same IEEE arithmetic as numpy scalars, faster.
        a1, a2 = self.alpha.item(i1), self.alpha.item(i2)
        y1, y2 = self.y.item(i1), self.y.item(i2)
        e1, e2 = self.errors.item(i1), self.errors.item(i2)
        s = y1 * y2
        if s < 0:
            lo, hi = max(0.0, a2 - a1), min(self.c, self.c + a2 - a1)
        else:
            lo, hi = max(0.0, a1 + a2 - self.c), min(self.c, a1 + a2)
        if hi - lo <= 0:
            return False
        row1, row2 = self.kernel.row(i1), self.kernel.row(i2)
        k11, k12, k22 = row1.item(i1), row1.item(i2), row2.item(i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > _ETA_EPS:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # Zero curvature along the constraint line: the objective is
            # linear there, so compare the two endpoints directly.
            gain_lo = self._pair_gain(i1, i2, lo, k11, k12, k22)
            gain_hi = self._pair_gain(i1, i2, hi, k11, k12, k22)
            if max(gain_lo, gain_hi) <= _ETA_EPS:
                return False
            a2_new = lo if gain_lo > gain_hi else hi
        # Snap to the box so bound multipliers are exact.
        if a2_new < self.bound_tol:
            a2_new = 0.0
        elif a2_new > self.c - self.bound_tol:
            a2_new = self.c
        if abs(a2_new - a2) < _STEP_EPS * (a2_new + a2 + _STEP_EPS):
            return False
        # The equality constraint is preserved exactly: a1 absorbs the move.
        a1_new = a1 + s * (a2 - a2_new)
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.bias - (e1 + d1 * k11 + d2 * k12)
        b2 = self.bias - (e2 + d1 * k12 + d2 * k22)
        if 0.0 < a1_new < self.c:
            new_bias = b1
        elif 0.0 < a2_new < self.c:
            new_bias = b2
        else:
            new_bias = 0.5 * (b1 + b2)
        # errors += (d1 * K[i1] + d2 * K[i2]) + (new_bias - bias), summed in
        # that order without temporaries.
        t1, t2 = self._delta
        np.multiply(row1, d1, out=t1)
        np.multiply(row2, d2, out=t2)
        t1 += t2
        t1 += new_bias - self.bias
        self.errors += t1
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.bias = new_bias
        self.updates += 1
        if self.debug:
            obj = self.current_objective()
            prev = self.history[-1]
            if obj < prev - _OBJ_SLACK * max(1.0, abs(prev)):
                raise AssertionError(
                    f"dual objective decreased: {prev!r} -> {obj!r} "
                    f"on update {self.updates}"
                )
            self.history.append(obj)
        return True

    def _pair_gain(self, i1, i2, a2_end, k11, k12, k22) -> float:
        """Dual objective change when alpha_2 moves to a2_end along the
        equality constraint."""
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        s = y1 * y2
        a1_end = a1 + s * (a2 - a2_end)
        d1 = y1 * (a1_end - a1)
        d2 = y2 * (a2_end - a2)
        u1 = self.errors[i1] + y1 - self.bias
        u2 = self.errors[i2] + y2 - self.bias
        return (
            (a1_end - a1)
            + (a2_end - a2)
            - d1 * u1
            - d2 * u2
            - 0.5 * (d1 * d1 * k11 + 2.0 * d1 * d2 * k12 + d2 * d2 * k22)
        )

    def current_objective(self) -> float:
        beta = self.alpha * self.y
        u = self.kernel.decision_without_bias(beta)
        return float(np.sum(self.alpha) - 0.5 * beta @ u)

    def solve(self) -> bool:
        """Run WSS2 rounds until the optimality gap closes (True), or until
        neither chosen pair can move or the update cap is reached (False)."""
        hard_cap = max(100_000, 200 * self.n)
        while True:
            self.scans += 1
            lower, upper = self._sets()
            g = self.bias - self.errors
            lo = np.where(lower, g, -np.inf)
            up = np.where(upper, g, np.inf)
            i, j_min = int(lo.argmax()), int(up.argmin())
            if lo[i] - up[j_min] <= 2.0 * self.tol:
                return True
            if self.updates >= hard_cap:
                return False
            # Second-order choice of j: the largest objective gain b^2 / a of
            # the unclipped step, b = G_i - G_j > 0 and curvature
            # a = K_ii + K_jj - 2 K_ij = 2 - 2 K_ij (the RBF diagonal is 1).
            # Points outside upper or with G_j >= G_i get b = 0, so gain 0.
            b = np.maximum(lo[i] - up, 0.0)
            a = np.maximum(2.0 - 2.0 * self.kernel.row(i), _ETA_EPS)
            j = int((b * b / a).argmax())
            if not (self.take_step(i, j) or (j != j_min and self.take_step(i, j_min))):
                return False


def train(
    X: np.ndarray, y: np.ndarray, config: SvmConfig | None = None, *, debug: bool = False
) -> SvmModel:
    """Train on normalized vectors X with labels y in {-1, +1}.

    Deterministic for a fixed input order. With debug=True the solver
    asserts that the dual objective never decreases across updates and
    keeps the per-update objective trace in the diagnostics.
    """
    config = config or SvmConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad training shapes: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("training vectors contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise DegenerateDataError("training data contains a single class")

    solver = _SmoSolver(X, y, config, debug)
    converged = solver.solve()
    alpha = np.clip(solver.alpha, 0.0, config.c)

    # Equality constraint must survive training (checked before pruning).
    balance = float(np.dot(alpha, y))
    if abs(balance) > 1e-8:
        raise AssertionError(f"sum(alpha * y) = {balance!r} after training")

    # Recompute the bias from scratch as the midpoint of the feasible
    # interval; that choice minimizes the worst per-point KKT violation
    # (free support vectors belong to both bounding sets, so their margin
    # conditions are covered automatically).
    beta = alpha * y
    u = solver.kernel.decision_without_bias(beta)
    g = y - u
    lower, upper = solver._sets()
    bias = 0.5 * (float(np.max(g[lower])) + float(np.min(g[upper])))

    decision = u + bias
    viol = kkt_violations(alpha, y, decision, config.c)
    # Duality-gap certificate from the same u: the primal objective of
    # w = sum(beta_i phi(x_i)) and this bias, with hinge slacks.
    half_norm = 0.5 * float(beta @ u)
    dual = float(np.sum(alpha)) - half_norm
    primal = half_norm + config.c * float(np.sum(np.maximum(0.0, 1.0 - y * decision)))
    diagnostics = TrainingDiagnostics(
        updates=solver.updates,
        scans=solver.scans,
        converged=converged,
        objective=dual,
        primal=primal,
        duality_gap=primal - dual,
        max_kkt_violation=float(np.max(viol)),
        balance=balance,
        alphas_full=alpha.copy(),
        objective_history=solver.history if debug else None,
    )

    keep = alpha > 1e-10 * config.c
    return SvmModel(
        support_vectors=X[keep].copy(),
        dual_coeffs=beta[keep].copy(),
        bias=bias,
        config=config,
        diagnostics=diagnostics,
    )


def decision_function(model: SvmModel, x: np.ndarray) -> float | np.ndarray:
    """f(x) = sum_i dual_coeffs_i * K(sv_i, x) + bias for normalized x.

    A 1-D x gives one float; an (n, d) batch gives n scores, computed
    SCORE_BLOCK rows at a time so the kernel block stays bounded."""
    x = check_width(x, model.dim)
    values = _blocked_expansion(
        np.atleast_2d(x), model.support_vectors, model.config.gamma,
        model.dual_coeffs,
    )
    values += model.bias
    return float(values[0]) if x.ndim == 1 else values


def score(model: SvmModel, x: np.ndarray) -> float | np.ndarray:
    """Decision values of raw feature rows: the whole batch is scaled with
    the model's stored normalizer in one call, then scored."""
    x = check_width(x, model.dim)
    if model.normalizer is not None:
        x = apply_normalizer(model.normalizer, x)
    return decision_function(model, x)


def predict(model: SvmModel, x: np.ndarray) -> Label | list[Label]:
    """Labels of raw feature rows: one Label for a 1-D x, a list for an
    (n, d) batch. Ties (f = 0) go to the positive class."""
    return labels_from_scores(score(model, x))


def fit_dataset(
    dataset: Dataset, config: SvmConfig | None = None, normalize: str = "minmax"
) -> SvmModel:
    """Fit the full pipeline on a labeled dataset: fit the normalizer on
    the training rows (mode 'minmax' or 'none'), train, then attach the
    normalizer and the training set's human fraction to the model."""
    X, normalizer = scaled_training_matrix(dataset, normalize)
    model = train(X, dataset.y, config)
    model.normalizer = normalizer
    model.train_positive_prior = dataset.positive_fraction()
    return model


def fitter(config: SvmConfig | None = None, normalize: str = "minmax") -> Fitter:
    """`fit_dataset` on each training split; the predictor labels raw rows."""
    return lambda train_ds: partial(predict, fit_dataset(train_ds, config, normalize))


def save_model(model: SvmModel, sink) -> None:
    """Persist to the gpcr-svm/1 JSON schema with round-trip precision."""
    payload = {
        "schema": SVM_SCHEMA,
        "gamma": model.config.gamma,
        "c": model.config.c,
        "bias": model.bias,
        "positive_label": modelfile.POSITIVE_LABEL,
        "normalizer": modelfile.normalizer_to_json(model.normalizer),
        "support_vectors": model.support_vectors.tolist(),
        "dual_coeffs": model.dual_coeffs.tolist(),
        "train_positive_prior": model.train_positive_prior,
    }
    modelfile.write_document(payload, sink)


def load_model(doc: dict) -> SvmModel:
    """The model in a parsed gpcr-svm/1 document (`modelfile.read_document`)."""
    gamma = modelfile.finite_scalar(modelfile.require(doc, "gamma"), "gamma")
    c = modelfile.finite_scalar(modelfile.require(doc, "c"), "c")
    bias = modelfile.finite_scalar(modelfile.require(doc, "bias"), "bias")
    svs = modelfile.finite_matrix(
        modelfile.require(doc, "support_vectors"), "support_vectors"
    )
    coeffs = modelfile.finite_vector(
        modelfile.require(doc, "dual_coeffs"), "dual_coeffs"
    )
    if coeffs.shape[0] != svs.shape[0]:
        raise ModelMismatchError(
            f"{coeffs.shape[0]} dual coefficients for {svs.shape[0]} "
            "support vectors"
        )
    normalizer, prior = modelfile.read_common(doc, svs.shape[1])
    return SvmModel(
        support_vectors=svs,
        dual_coeffs=coeffs,
        bias=bias,
        config=SvmConfig(gamma=gamma, c=c),
        normalizer=normalizer,
        train_positive_prior=prior,
    )
