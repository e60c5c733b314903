"""Spans around the public functions of gpcrsvm, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper under every
gpcrsvm module name that binds it (``svm`` and ``baseline`` import the
normalizer functions by name, ``features`` imports
``validate_gpcr_topology``), so no call slips past through a stale binding.
A span is ``(name, parent index, start, end, extra)``; spans stay in memory
until the chain that made them is reduced to per-layer metrics.
"""

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rows(args, kwargs, result):
    return result.shape[0] if result.ndim == 2 else 1


def _labels(args, kwargs, result):
    return len(result) if isinstance(result, list) else 1


def _fit(args, kwargs, result):
    d = result.diagnostics
    return {
        "updates": d.updates,
        "scans": d.scans,
        "converged": bool(d.converged),
        "max_kkt_violation": d.max_kkt_violation,
        "kkt_tolerance": result.config.kkt_tolerance,
        "support_vectors": len(result.dual_coeffs),
        "n": len(d.alphas_full),
    }


def _file_bytes(args, kwargs, result):
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    return os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0


# What each span records besides its times; it runs after the span closes.
_EXTRA = {
    "features.apply_normalizer": _rows,
    "features.assemble_dataset": lambda args, kwargs, result: result.provenance.ingested,
    "svm.predict": _labels,
    "svm.rbf_gram": lambda args, kwargs, result: result.nbytes,
    "svm.train": _fit,
    "modelfile.write_document": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, None)
            if extra is not None:
                spans[index] = (name, parent, start, end, extra(args, kwargs, result))
            return result

        return traced

    def install(self, targets):
        """Wrap every ``module.function`` in targets. Raises if a binding of
        an original survives."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "gpcrsvm" or key.startswith("gpcrsvm."))
        ]
        for target in targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"gpcrsvm.{module_name}"], func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            stale = [
                f"{m.__name__}.{attr}" for m in modules
                for attr, value in vars(m).items() if value is original
            ]
            if stale:
                raise RuntimeError(f"unpatched bindings of {target}: {stale}")

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def reduce_chain(spans, chain_s):
    """Per-layer metrics of one chain repetition, plus its fits and the
    call count of every traced function."""
    n = len(spans)
    child = [0.0] * n
    call = [0] * n  # which top-level (CLI) call each span belongs to
    calls_seen = -1
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            call[i] = call[parent]
        else:
            calls_seen += 1
            call[i] = calls_seen
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    summed = Counter()
    fits = []
    for i, (name, parent, start, end, extra) in enumerate(spans):
        if name == "svm.rbf_gram":
            under = spans[parent][0] if parent >= 0 else ""
            name = "svm.rbf_gram." + ("train" if under == "svm.train" else "predict")
            calls["svm.rbf_gram"] += 1
        elapsed = end - start
        total[name] += elapsed
        own[name] += elapsed - child[i]
        calls[name] += 1
        if isinstance(extra, dict):
            fits.append(dict(extra, call=call[i]))
        elif extra is not None:
            summed[name] += extra

    def per_call(key, name):
        return summed[key] / calls[name] if calls[name] else 0.0

    m = {}
    for name in ("seqio.parse_fasta", "seqio.assign_labels", "topology.parse_topology",
                 "features.assemble_dataset", "features.read_feature_csv",
                 "features.write_feature_csv", "features.apply_normalizer",
                 "svm.predict", "svm.decision_function", "svm.save_model",
                 "svm.load_model", "baseline.nb_fit_dataset", "baseline.log_odds",
                 "evaluation.evaluate_predictions", "evaluation.report_to_json",
                 "modelfile.write_document", "modelfile.read_document"):
        m[f"{name}.s"] = total[name]
    records = summed["features.assemble_dataset"]
    m["topology.validate_gpcr_topology.calls_per_record"] = (
        calls["topology.validate_gpcr_topology"] / records if records else 0.0
    )
    for name in ("features.fit_normalizer", "features.apply_normalizer",
                 "svm.fit_dataset", "svm.predict", "baseline.log_odds"):
        m[f"{name}.calls"] = calls[name]
    m["features.apply_normalizer.rows_per_call"] = per_call(
        "features.apply_normalizer", "features.apply_normalizer")
    m["svm.predict.rows_per_call"] = per_call("svm.predict", "svm.predict")
    m["svm.train.self_s"] = own["svm.train"]
    for part in ("train", "predict"):
        name = f"svm.rbf_gram.{part}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.bytes"] = summed[name]
    updates = sum(f["updates"] for f in fits)
    m["svm.updates"] = updates
    m["svm.updates_per_fit"] = updates / len(fits) if fits else 0.0
    m["svm.scans"] = sum(f["scans"] for f in fits)
    m["svm.converged_ratio"] = (
        sum(f["converged"] for f in fits) / len(fits) if fits else 0.0
    )
    m["svm.max_kkt_violation"] = max((f["max_kkt_violation"] for f in fits), default=0.0)
    m["svm.support_vectors"] = (
        sum(f["support_vectors"] for f in fits) / len(fits) if fits else 0.0
    )
    m["evaluation.cross_validate.self_s"] = own["evaluation.cross_validate"]
    m["modelfile.bytes_written"] = summed["modelfile.write_document"]
    m["cli.self_s"] = own["cli.main"]
    m["trace_coverage_pct"] = 100.0 * sum(own.values()) / chain_s
    return m, fits, dict(calls)
