"""Independent checks of the CLI's outputs.

Nothing here calls gpcrsvm: feature tables and model files are read with
the standard library and scores are recomputed in numpy from the model
JSON. Every check returns a list of error strings; an empty list passes.
"""

import csv
import json
import math
import re

import numpy as np

N_FEATURES = 24
SCORE_TOL = 2e-6  # predict prints scores to 6 decimals
TIE_TOL = 1e-9  # scores closer to 0 than this may go either way


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def load_json(text):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_features(text):
    """(ids, labels, matrix) of a feature table."""
    rows = list(csv.reader(text.splitlines()))
    body = rows[1:]
    ids = [r[0] for r in body]
    labels = [r[-1] for r in body]
    matrix = np.array([[float(x) for x in r[1:-1]] for r in body]).reshape(-1, N_FEATURES)
    return ids, labels, matrix


def _scaled(doc, X):
    norm = doc["normalizer"]
    if norm is None:
        return X
    lo, hi = np.array(norm["min"]), np.array(norm["max"])
    span = hi - lo
    scaled = np.where(span > 0, (X - lo) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(scaled, 0.0, 1.0)


def scores(doc, X):
    """Decision values of a model file on raw feature rows: SVM (min-max
    scaling, RBF, bias) or Gaussian naive Bayes log-odds."""
    Z = _scaled(doc, X)
    if doc["schema"].startswith("gpcr-nb/"):
        prior_pos, prior_neg = doc["priors"]
        (mean_pos, mean_neg), (var_pos, var_neg) = (
            np.array(doc["means"]), np.array(doc["variances"])
        )
        def loglik(mean, var):
            return -0.5 * np.sum(np.log(2 * np.pi * var) + (Z - mean) ** 2 / var, axis=1)
        return (math.log(prior_pos) - math.log(prior_neg)
                + loglik(mean_pos, var_pos) - loglik(mean_neg, var_neg))
    sv = np.array(doc["support_vectors"])
    coef = np.array(doc["dual_coeffs"])
    out = np.empty(len(Z))
    for start in range(0, len(Z), 64):
        diff = Z[start:start + 64, None, :] - sv[None, :, :]
        out[start:start + 64] = np.exp(-doc["gamma"] * np.sum(diff * diff, axis=2)) @ coef
    return out + doc["bias"]


def check_model(doc, n_train):
    """Structural and dual-feasibility checks on a model file."""
    errors = []
    if doc.get("schema") == "gpcr-svm/1":
        coef = np.array(doc["dual_coeffs"], dtype=float)
        c = doc["c"]
        if not 1 <= len(coef) <= n_train:
            errors.append(f"{len(coef)} support vectors for {n_train} training rows")
        if np.any(np.abs(coef) > c * (1 + 1e-9)):
            errors.append(f"|coef| {np.abs(coef).max()!r} exceeds C = {c}")
        if abs(coef.sum()) > 1e-6 * max(1.0, c):
            errors.append(f"coefficients sum to {coef.sum()!r}, not 0")
        if np.array(doc["support_vectors"]).shape != (len(coef), N_FEATURES):
            errors.append("support vector matrix has the wrong shape")
    elif doc.get("schema") == "gpcr-nb/1":
        priors = doc["priors"]
        if min(priors) <= 0 or abs(sum(priors) - 1.0) > 1e-9:
            errors.append(f"priors {priors} are not a distribution")
        if np.min(doc["variances"]) <= 0:
            errors.append("non-positive variance")
    else:
        errors.append(f"unknown schema {doc.get('schema')!r}")
    return errors


def _label_errors(ids, predicted, truth_scores):
    errors = []
    for i, (sid, label) in enumerate(zip(ids, predicted)):
        s = truth_scores[i]
        if abs(s) >= TIE_TOL and label != ("human" if s >= 0 else "other"):
            errors.append(f"{sid}: label {label} but score {s:.9f}")
    return errors


def check_predict(text, doc, ids, X):
    """Every line is 'id<TAB>label<TAB>score' in input order, with the score
    the model file gives and 'human' exactly when the score is >= 0."""
    lines = text.splitlines()
    if len(lines) != len(ids):
        return [f"{len(lines)} prediction lines for {len(ids)} rows"]
    expected = scores(doc, X)
    errors = []
    printed_ids, labels = [], []
    for line, want in zip(lines, expected):
        sid, label, value = line.split("\t")
        printed_ids.append(sid)
        labels.append(label)
        if abs(float(value) - want) > SCORE_TOL * max(1.0, abs(want)):
            errors.append(f"{sid}: score {value}, model gives {want:.9f}")
    if printed_ids != ids:
        errors.append("prediction ids differ from the feature table")
    return errors + _label_errors(ids, labels, expected)


def _report_errors(report, ids, labels):
    m = report["matrix"]
    n = m["tp"] + m["fp"] + m["fn"] + m["tn"]
    errors = []
    if n != len(ids):
        errors.append(f"report totals {n}, dataset has {len(ids)}")
    preds = report["predictions"]
    if sorted(p["id"] for p in preds) != sorted(ids):
        errors.append("report predictions do not cover the dataset once each")
    truth = dict(zip(ids, labels))
    if any(truth.get(p["id"]) != p["actual"] for p in preds):
        errors.append("report actual labels differ from the feature table")
    if n and abs(report["accuracy"] - 100.0 * (m["tp"] + m["tn"]) / n) > 1e-9:
        errors.append("report accuracy does not match its confusion matrix")
    return errors


def check_evaluate(report, doc, ids, labels, X):
    errors = _report_errors(report, ids, labels)
    if errors:
        return errors
    by_id = {p["id"]: p["predicted"] for p in report["predictions"]}
    return _label_errors(ids, [by_id[i] for i in ids], scores(doc, X))


def check_cv(report, ids, labels, window):
    errors = _report_errors(report, ids, labels)
    lo, hi = window
    if not lo <= report["accuracy"] <= hi:
        errors.append(f"CV accuracy {report['accuracy']} % outside [{lo}, {hi}]")
    return errors


_PROVENANCE = re.compile(r"ingested (\d+)\s+retained (\d+)\s+excluded (\d+)")


def check_extract(stdout, ids, labels, X, corpus_truth):
    """Every generated record is retained, in order, with the generator's
    label and region lengths and a composition that sums to 1."""
    m = _PROVENANCE.search(stdout)
    if m is None:
        return ["no provenance line"]
    ingested, retained, excluded = map(int, m.groups())
    n = len(corpus_truth)
    errors = []
    if not ingested == retained == n or excluded:
        errors.append(f"ingested {ingested}, retained {retained} of {n} records")
    if ids != list(corpus_truth):
        return errors + ["feature table ids differ from the corpus"]
    if labels != [t[0] for t in corpus_truth.values()]:
        errors.append("feature table labels differ from the species suffixes")
    regions = np.array([t[1] for t in corpus_truth.values()], dtype=float)
    if not np.array_equal(X[:, 20:], regions):
        errors.append("region lengths differ from the generated topologies")
    if np.any(np.abs(X[:, :20].sum(axis=1) - 1.0) > 1e-9):
        errors.append("composition fractions do not sum to 1")
    return errors


def check_train(stdout, doc, n_train):
    errors = check_model(doc, n_train)
    if doc.get("schema") == "gpcr-svm/1":
        m = re.search(r"support vectors: (\d+) of (\d+)", stdout)
        if m is None or (int(m[1]), int(m[2])) != (len(doc["dual_coeffs"]), n_train):
            errors.append("support vector line disagrees with the model file")
    if "training accuracy:" not in stdout:
        errors.append("no training accuracy line")
    return errors


def check_grid(stdout, gammas, cs, window):
    """The table ranks each (gamma, C) pair once, best first, and the best
    line repeats the top row."""
    rows = re.findall(r"^\s*(\S+)\s+(\S+)\s+(\S+) %$", stdout, re.M)
    best = re.search(r"^best: gamma=(\S+) c=(\S+) accuracy=(\S+) %$", stdout, re.M)
    pairs = sorted((float(g), float(c)) for g, c, _ in rows)
    errors = []
    if pairs != sorted((g, c) for g in gammas for c in cs):
        return [f"grid rows {pairs} do not match the requested grid"]
    accs = [float(a) for _, _, a in rows]
    if accs != sorted(accs, reverse=True) or not all(0 <= a <= 100 for a in accs):
        errors.append("grid accuracies are not ranked or out of range")
    if best is None or tuple(best.groups()) != rows[0]:
        errors.append("best line does not repeat the top row")
    lo, hi = window
    if not lo <= accs[0] <= hi:
        errors.append(f"best grid accuracy {accs[0]} % outside [{lo}, {hi}]")
    return errors
