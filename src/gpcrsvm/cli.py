"""Command-line front end: extract-features / train / evaluate / predict /
cross-validate / grid-search.

Exit codes: 0 success, 1 argument validation, 2 unreadable or malformed
input, 3 empty result, 4 degenerate data, 5 model/feature mismatch.
"""

import argparse
import io
import sys
from pathlib import Path

from . import baseline, evaluation, features, modelfile, seqio, svm, topology
from .errors import DegenerateDataError, ModelFormatError, ModelMismatchError
from .features import Dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_DEGENERATE = 4
EXIT_MISMATCH = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2; argument problems are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--fasta", type=Path, help="FASTA sequence file")
    io_flags.add_argument("--topology", type=Path, help="TMHMM long-format file")
    io_flags.add_argument("--labels", type=Path, help="label override file")
    io_flags.add_argument("--features", type=Path, help="feature table CSV")
    io_flags.add_argument("--out", type=Path, help="output path")
    io_flags.add_argument("--model", type=Path, help="model file path")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--gamma", type=float, default=10.0)
    model_flags.add_argument("--c", type=float, default=1.0)
    model_flags.add_argument("--kkt-tol", type=float, default=1e-3)
    model_flags.add_argument(
        "--normalize", choices=("none", "minmax"), default="minmax"
    )
    model_flags.add_argument("--seed", type=int, default=42)
    model_flags.add_argument("--baseline", choices=("nb",))

    eval_flags = argparse.ArgumentParser(add_help=False)
    eval_flags.add_argument("--cv", type=int, help="k-fold cross-validation")
    eval_flags.add_argument("--holdout", type=int, help="training-set size")
    eval_flags.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="gpcrsvm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "extract-features", parents=[io_flags],
        help="build the feature table from FASTA + topology files",
    )
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser(
        "train", parents=[io_flags, model_flags],
        help="train a classifier and write the model file",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate", parents=[io_flags, model_flags, eval_flags],
        help="evaluate a model file, a holdout split, or cross-validation",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "predict", parents=[io_flags, model_flags],
        help="classify feature vectors with a trained model",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "cross-validate", parents=[io_flags, model_flags, eval_flags],
        help="stratified k-fold cross-validation (default k=10)",
    )
    p.set_defaults(func=cmd_cross_validate)

    grid_help = (
        "rank (gamma, C) candidates by cross-validated accuracy; each fold "
        "is scaled once, builds one kernel per gamma and solves the Cs in "
        "ascending order, each starting from the previous C's solution"
    )
    p = sub.add_parser(
        "grid-search", parents=[io_flags, model_flags, eval_flags],
        help=grid_help, description=grid_help,
    )
    p.add_argument("--gammas", default="10", help="comma-separated gamma values")
    p.add_argument("--cs", default="1.0", help="comma-separated C values")
    p.set_defaults(func=cmd_grid_search)
    return parser


def _validate(args) -> None:
    """Range-check numeric options before touching any file."""
    def bad(message):
        raise _CliError(EXIT_USAGE, message)

    if getattr(args, "gamma", 1.0) <= 0:
        bad(f"--gamma must be positive, got {args.gamma}")
    if getattr(args, "c", 1.0) <= 0:
        bad(f"--c must be positive, got {args.c}")
    if getattr(args, "kkt_tol", 1.0) <= 0:
        bad(f"--kkt-tol must be positive, got {args.kkt_tol}")
    if getattr(args, "cv", None) is not None and args.cv < 2:
        bad(f"--cv must be at least 2, got {args.cv}")
    if getattr(args, "holdout", None) is not None and args.holdout < 1:
        bad(f"--holdout must be positive, got {args.holdout}")
    if getattr(args, "cv", None) is not None and getattr(args, "holdout", None) is not None:
        bad("--cv and --holdout are mutually exclusive")
    for list_flag in ("gammas", "cs"):
        raw = getattr(args, list_flag, None)
        if raw is None:
            continue
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            bad(f"--{list_flag} must be a comma-separated number list, got {raw!r}")
        if not values:
            bad(f"--{list_flag} needs at least one value")
        if any(v <= 0 for v in values):
            bad(f"--{list_flag} values must be positive, got {raw!r}")
        setattr(args, list_flag + "_parsed", values)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc.strerror}") from None


def _require(args, *flags) -> None:
    missing = [f"--{f.replace('_', '-')}" for f in flags if getattr(args, f) is None]
    if missing:
        raise _CliError(
            EXIT_USAGE, f"{args.command} requires {', '.join(missing)}"
        )


def _extract(args) -> Dataset:
    """Features from --fasta, --topology and --labels; warns on stderr of
    override ids that match no sequence."""
    records = seqio.parse_fasta(_read_text(args.fasta))
    overrides = None
    if args.labels is not None:
        overrides = seqio.parse_label_overrides(_read_text(args.labels))
    labeled, unmatched = seqio.assign_labels(records, overrides)
    if unmatched:
        print(f"warning: {unmatched} override id(s) matched no sequence", file=sys.stderr)
    maps = topology.parse_topology(_read_text(args.topology))
    return features.assemble_dataset(labeled, maps)


def _dataset_from_args(args) -> Dataset:
    """Load the feature table, or run the extraction pipeline on raw files.
    An empty result is exit 3 for every command that reads a dataset."""
    if args.features is not None:
        dataset = features.read_feature_csv(args.features)
    else:
        _require(args, "fasta", "topology")
        dataset = _extract(args)
    if not len(dataset):
        raise _CliError(EXIT_EMPTY, "no usable sequences in the input")
    return dataset


def _print_provenance(dataset: Dataset) -> None:
    prov = dataset.provenance
    print(
        f"ingested {prov.ingested}  retained {prov.retained}  "
        f"excluded {prov.total_excluded}"
    )
    for reason in sorted(prov.excluded):
        print(f"  excluded {reason}: {prov.excluded[reason]}")


def _make_fitter(args) -> evaluation.Fitter:
    """The fitter of --baseline's model, or of the SVM that --gamma and --c
    configure."""
    if args.baseline == "nb":
        return baseline.nb_fitter(args.normalize)
    config = svm.SvmConfig(gamma=args.gamma, c=args.c, kkt_tolerance=args.kkt_tol)
    return svm.fitter(config, args.normalize)


def _load_any_model(path: Path):
    """Read the model file once and dispatch on its schema field: returns
    (model, score), where score maps an (n, 24) matrix of raw feature rows
    to n scores (>= 0: human)."""
    doc = modelfile.read_document(
        io.StringIO(_read_text(path)), svm.SVM_SCHEMA, baseline.NB_SCHEMA
    )
    # An if, not a loader table, so a loader wrapped on its module still runs.
    if doc["schema"] == svm.SVM_SCHEMA:
        model = svm.load_model(doc)
        return model, lambda X: svm.score(model, X)
    model = baseline.load_nb_model(doc)
    return model, lambda X: baseline.log_odds(model, X)


def _emit_report(report: evaluation.EvaluationReport, args) -> None:
    if args.format == "json":
        print(evaluation.report_to_json(report), end="")
    else:
        print(evaluation.render_text(report), end="")
    if args.out is not None:
        args.out.write_text(evaluation.report_to_json(report))


# -- commands ---------------------------------------------------------------


def cmd_extract_features(args) -> int:
    _require(args, "fasta", "topology", "out")
    dataset = _extract(args)
    _print_provenance(dataset)
    if not len(dataset):
        print("no usable sequences; feature table not written")
        return EXIT_EMPTY
    features.write_feature_csv(dataset, args.out)
    print(f"wrote {len(dataset)} feature vectors to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args, "model")
    dataset = _dataset_from_args(args)
    if args.baseline == "nb":
        model = baseline.nb_fit_dataset(dataset, normalize=args.normalize)
        baseline.save_nb_model(model, args.model)
        predictions = baseline.nb_predict(model, dataset.X)
    else:
        config = svm.SvmConfig(gamma=args.gamma, c=args.c, kkt_tolerance=args.kkt_tol)
        model = svm.fit_dataset(dataset, config, normalize=args.normalize)
        svm.save_model(model, args.model)
        print(f"support vectors: {len(model.dual_coeffs)} of {len(dataset)}")
        predictions = svm.predict(model, dataset.X)
    correct = sum(1 for a, p in zip(dataset.labels, predictions) if a is p)
    print(f"training accuracy: {100.0 * correct / len(dataset):.4f} %")
    print(f"wrote model to {args.model}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.cv is not None or args.holdout is not None:
        dataset, fit = _dataset_from_args(args), _make_fitter(args)
        if args.cv is not None:
            report = evaluation.cross_validate(dataset, args.cv, fit, args.seed).pooled
        else:
            report = evaluation.holdout(dataset, args.holdout, fit, args.seed)
        _emit_report(report, args)
        return EXIT_OK
    _require(args, "model")
    model, score = _load_any_model(args.model)
    dataset = _dataset_from_args(args)
    records = evaluation.predict_records(
        lambda X: seqio.labels_from_scores(score(X)), dataset
    )
    report = evaluation.evaluate_predictions(
        records, baseline_prior=model.train_positive_prior
    )
    _emit_report(report, args)
    return EXIT_OK


def cmd_predict(args) -> int:
    _require(args, "model")
    _, score = _load_any_model(args.model)
    dataset = _dataset_from_args(args)
    scores = score(dataset.X)
    text = "".join(
        f"{seq_id}\t{label.value}\t{s:.6f}\n"
        for seq_id, label, s in zip(dataset.ids, seqio.labels_from_scores(scores), scores)
    )
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text)
    return EXIT_OK


def cmd_cross_validate(args) -> int:
    if args.cv is None:
        args.cv = 10
    if args.holdout is not None:
        raise _CliError(EXIT_USAGE, "cross-validate does not take --holdout")
    return cmd_evaluate(args)


def cmd_grid_search(args) -> int:
    if args.baseline is not None:
        raise _CliError(
            EXIT_USAGE, "grid-search tunes only the SVM's gamma and C; drop --baseline"
        )
    if args.cv is None:
        args.cv = 10
    dataset = _dataset_from_args(args)
    gammas, cs = args.gammas_parsed, args.cs_parsed
    fit_each = svm.grid_fitter(gammas, cs, args.kkt_tol, args.normalize)
    results = evaluation.cross_validate_each(dataset, args.cv, fit_each, args.seed)
    cells = [(gamma, c) for gamma in gammas for c in cs]
    ranked = [
        (gamma, c, result.pooled.accuracy)
        for (gamma, c), result in zip(cells, results, strict=True)
    ]
    ranked.sort(key=lambda row: (-row[2], row[1], row[0]))
    print(f"{'gamma':>10} {'c':>10} {'cv_accuracy':>12}")
    for gamma, c, acc in ranked:
        print(f"{gamma:>10g} {c:>10g} {acc:>11.4f} %")
    best = ranked[0]
    print(f"best: gamma={best[0]:g} c={best[1]:g} accuracy={best[2]:.4f} %")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; argument errors exit 1
        return int(exc.code or 0)
    try:
        _validate(args)
        return args.func(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except DegenerateDataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ModelMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except (
        seqio.FastaParseError,
        topology.TopologyParseError,
        ModelFormatError,
        OSError,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
