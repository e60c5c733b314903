#!/usr/bin/env python3
"""End-to-end experiment on a synthetic corpus: extract features, then
compare the SVM against the naive Bayes baseline with a stratified holdout
split and k-fold cross-validation."""

import argparse

from gpcrsvm import baseline, evaluation, features, seqio, svm, synthetic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=224)
    parser.add_argument("--train-count", type=int, default=None,
                        help="holdout training rows (default: the paper's "
                             "188/224 share of --n)")
    parser.add_argument("--cv", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--gamma", type=float, default=10.0)
    parser.add_argument("--c", type=float, default=1.0)
    args = parser.parse_args()
    if args.train_count is None:
        args.train_count = round(args.n * 188 / 224)
    if not 0 < args.train_count < args.n:
        parser.error(f"--train-count must be in 1..{args.n - 1}, got {args.train_count}")

    corpus = synthetic.make_corpus(n_sequences=args.n, seed=args.seed)
    labeled, _ = seqio.assign_labels(corpus.records)
    dataset = features.assemble_dataset(labeled, corpus.topologies)
    prov = dataset.provenance
    print(f"assembled {prov.retained}/{prov.ingested} sequences\n")

    config = svm.SvmConfig(gamma=args.gamma, c=args.c)
    fitters = [("SVM (RBF, SMO)", svm.fitter(config)),
               ("Naive Bayes", baseline.nb_fitter())]

    print(f"== holdout split {args.train_count}/{len(dataset) - args.train_count} ==")
    for name, fit in fitters:
        report = evaluation.holdout(dataset, args.train_count, fit, args.seed)
        bm = (report.sensitivity, report.specificity, report.accuracy)
        print(f"{name:<18} sensitivity {bm[0]:.2f}  specificity {bm[1]:.2f}  "
              f"accuracy {bm[2]:.2f}")

    print(f"\n== {args.cv}-fold cross-validation ==")
    for name, fit in fitters:
        result = evaluation.cross_validate(dataset, args.cv, fit, args.seed)
        print(f"\n-- {name} --")
        print(evaluation.render_text(result.pooled), end="")


if __name__ == "__main__":
    main()
