"""The benchmark's workloads: which corpus, which CLI chain, what to expect.

Each chain is a list of ``gpcrsvm`` command lines. ``{in}`` stands for the
directory holding the generated corpus and ``{out}`` for the directory of
one chain repetition, so every repetition writes its own outputs and each
CLI call can be checked.

Why these three:

* ``paper224``: the paper's corpus size on the repository's separable
  generator. A 4x4 grid and 10-fold CV make 160+ tiny fits, so per-call
  overhead (SMO's Python loop, per-row normalize/predict) dominates and the
  Gram build is negligible. Grid search is most of the chain.
* ``overlap2k``: 2,000 overlapping sequences, CV accuracy well below 100 %.
  A few large dense-Gram fits (n <= svm.FULL_GRAM_LIMIT) where SMO is
  nearly all of the time. SMO work varies about 15 % from corpus to
  corpus, so extra corpora run the chain without cross-validate to
  average ``train_s`` over more of them.
* ``bulk5k``: 5,000 milder-overlap sequences. Training runs on the row-cache
  kernel path (n > svm.FULL_GRAM_LIMIT), predict scores 5,000 rows one at a
  time, CV uses the naive Bayes baseline, and parsing carries real weight.
"""

from dataclasses import dataclass, replace
from pathlib import Path

FEATURES = "{out}/features.csv"
MODEL = "{out}/model.json"

# Functions wrapped in the traced run, by defining module. Every one is
# patched under each gpcrsvm module name that binds it.
TRACED = (
    "cli.main",
    "seqio.parse_fasta",
    "seqio.assign_labels",
    "topology.parse_topology",
    "topology.validate_gpcr_topology",
    "features.assemble_dataset",
    "features.read_feature_csv",
    "features.write_feature_csv",
    "features.fit_normalizer",
    "features.apply_normalizer",
    "svm.fit_dataset",
    "svm.train",
    "svm.rbf_gram",
    "svm.predict",
    "svm.decision_function",
    "svm.save_model",
    "svm.load_model",
    "baseline.nb_fit_dataset",
    "baseline.log_odds",
    "evaluation.cross_validate",
    "evaluation.evaluate_predictions",
    "evaluation.report_to_json",
    "modelfile.write_document",
    "modelfile.read_document",
)

_NB_ONLY = {"baseline.nb_fit_dataset", "baseline.log_odds"}
_LONG_COMMANDS = {"cross-validate", "grid-search"}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    overlap: float | None  # None: the repository's separable generator
    corpora: int  # corpora per run on the whole chain; times are averaged over corpora
    chain: tuple[tuple[str, ...], ...]
    cv_window: tuple[float, float]  # allowed pooled CV accuracy, percent
    uses_nb: bool
    # Extra corpora, after the first ``corpora``, whose chain stops before
    # cross-validate: they add train/predict/evaluate samples cheaply.
    light_corpora: int = 0

    def expected_calls(self) -> set[str]:
        """Traced functions this workload's chain must call."""
        return {f for f in TRACED if self.uses_nb or f not in _NB_ONLY}

    def chain_for(self, j: int) -> tuple[tuple[str, ...], ...]:
        """The chain run on corpus j: the whole chain on the first
        ``corpora``, the light chain on the rest."""
        if j < self.corpora:
            return self.chain
        return tuple(s for s in self.chain if s[0] not in _LONG_COMMANDS)


def output_path(argv):
    """The file a chain command writes, or None (grid-search prints only)."""
    flag = "--model" if argv[0] == "train" else "--out"
    return Path(argv[argv.index(flag) + 1]) if flag in argv else None


def _chain(train, cv, grid=()):
    steps = [
        ("extract-features", "--fasta", "{in}/corpus.fasta",
         "--topology", "{in}/corpus.tmhmm", "--out", FEATURES),
        ("train", "--features", FEATURES, "--model", MODEL, *train),
        ("predict", "--features", FEATURES, "--model", MODEL,
         "--out", "{out}/predict.tsv"),
        ("evaluate", "--features", FEATURES, "--model", MODEL,
         "--out", "{out}/evaluate.json"),
        ("cross-validate", "--features", FEATURES, *cv, "--out", "{out}/cv.json"),
    ]
    if grid:
        steps.append(("grid-search", "--features", FEATURES, *grid))
    return tuple(steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper224",
            n=224,
            overlap=None,
            corpora=5,
            chain=_chain(
                train=("--gamma", "10", "--c", "1"),
                cv=("--gamma", "10", "--c", "1", "--cv", "10"),
                grid=("--gammas", "0.1,1,10,100", "--cs", "0.1,1,10,100",
                      "--cv", "10"),
            ),
            # 100 % on most corpora, but not all: 180 seeded corpora gave
            # 98.7 to 100 % (up to 3 of 224 misclassified at gamma=10).
            cv_window=(97.5, 100.0),
            uses_nb=False,
        ),
        Workload(
            name="overlap2k",
            n=2000,
            overlap=0.9,
            corpora=2,
            light_corpora=4,
            chain=_chain(
                train=("--gamma", "0.1", "--c", "100"),
                cv=("--gamma", "0.1", "--c", "100", "--cv", "5"),
            ),
            cv_window=(75.0, 92.0),
            uses_nb=False,
        ),
        Workload(
            name="bulk5k",
            n=5000,
            overlap=0.84,
            corpora=5,
            chain=_chain(
                train=("--gamma", "1", "--c", "10"),
                cv=("--baseline", "nb", "--cv", "10"),
            ),
            cv_window=(75.0, 99.0),
            uses_nb=True,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's self-test:
    small corpora, one corpus (plus one light corpus where the workload has
    them), and any CV accuracy accepted except for the separable corpus."""
    window = workload.cv_window if workload.overlap is None else (0.0, 100.0)
    return replace(workload, n=60, corpora=1, cv_window=window,
                   light_corpora=min(workload.light_corpora, 1))
