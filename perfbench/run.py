"""gpcrsvm benchmark: drives the real CLI on generated corpora and checks
every output.

    python3 perfbench/run.py --workload paper224 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, measured without tracing; with
``--trace 1`` the per-layer metrics, from a run that times the same chains
first untraced and then with spans around gpcrsvm's public functions.
Each command time is the median of its repeats on a corpus, averaged over
the run's corpora that ran the command; ``chain_s``, one pass of the chain,
is the sum of the command times. ``failed / attempted`` is the error rate:
CLI calls that exited non-zero or failed an output check, over the calls
made. The environment and the sample counts are printed on the line
before, and kept with every metric in ``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads  # the benchmark's own module, next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21
RUN_LIMIT_S = 170  # a run must end within 180 s
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: as fast as two for these matrix sizes, and a second
# thread spinning on a shared core makes the timings swing.
BLAS_ENV = {v: "1" for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git_commit():
    """The checkout's commit, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _setup_samples(env):
    """Fresh interpreter plus ``import gpcrsvm.cli``, as every CLI call pays."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gpcrsvm.cli"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        samples.append(perf_counter() - start)
    return samples


def _make_corpora(workload, seed, work, count):
    import corpus

    made = []
    for j in range(count):
        corpus_seed = seed * 100 + j
        if workload.overlap is None:
            c = corpus.separable(workload.n, corpus_seed)
        else:
            c = corpus.overlapping(workload.n, corpus_seed, workload.overlap)
        directory = work / f"corpus{j}"
        corpus.write(c, directory)
        made.append((directory, c))
    return made


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _normalized(text, chain):
    return text.replace(chain["out"], "{out}")


def _check_reference(chain, workload, truth):
    """Full oracle checks of one chain; returns {call index: [errors]}."""
    import oracle

    errors = {}
    features = model = None
    for i, call in enumerate(chain["calls"]):
        cmd, argv = call["command"], call["argv"]
        path = workloads.output_path(argv)
        try:
            text = None if path is None else path.read_text()
            if cmd == "extract-features":
                features = oracle.read_features(text)
                errors[i] = oracle.check_extract(call["stdout"], *features, truth)
            elif cmd == "train":
                model = oracle.load_json(text)
                errors[i] = oracle.check_train(call["stdout"], model, len(features[0]))
            elif cmd == "predict":
                errors[i] = oracle.check_predict(text, model, features[0], features[2])
            elif cmd == "evaluate":
                errors[i] = oracle.check_evaluate(oracle.load_json(text), model, *features)
            elif cmd == "cross-validate":
                errors[i] = oracle.check_cv(oracle.load_json(text), features[0],
                                            features[1], workload.cv_window)
            elif cmd == "grid-search":
                errors[i] = oracle.check_grid(
                    call["stdout"],
                    [float(g) for g in _flag(argv, "--gammas").split(",")],
                    [float(c) for c in _flag(argv, "--cs").split(",")],
                    workload.cv_window)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors[i] = [f"unreadable output: {exc!r}"]
    return errors


def _check_repeat(chain, reference):
    """A repeat on the same corpus must reproduce the reference byte for byte."""
    errors = {}
    for i, (call, ref) in enumerate(zip(chain["calls"], reference["calls"])):
        errs = []
        if _normalized(call["stdout"], chain) != _normalized(ref["stdout"], reference):
            errs.append("stdout differs from the reference run")
        path, ref_path = workloads.output_path(call["argv"]), workloads.output_path(ref["argv"])
        if path is not None:
            try:
                if path.read_bytes() != ref_path.read_bytes():
                    errs.append(f"{path.name} differs from the reference run")
            except OSError as exc:
                errs.append(f"missing output: {exc}")
        errors[i] = errs
    return errors


def _check_fits(chain):
    """Every traced fit converged within its KKT tolerance."""
    errors = {}
    for fit in chain.get("fits", ()):
        if not fit["converged"] or fit["max_kkt_violation"] > fit["kkt_tolerance"]:
            errors.setdefault(fit["call"], []).append(
                f"fit on {fit['n']} rows: converged={fit['converged']}, "
                f"max KKT violation {fit['max_kkt_violation']!r}")
    return errors


def _corpus_mean(chains, value):
    """Mean over the corpora of the median over repeated chains of
    value(chain): the median damps noise between repeats, the mean averages
    corpus to corpus differences in solver work."""
    by_corpus = {}
    for chain in chains:
        by_corpus.setdefault(chain["corpus"], []).append(value(chain))
    return statistics.fmean(statistics.median(v) for v in by_corpus.values())


def _command_seconds(chains, name):
    """Corpus mean of the command's time, over the chains that ran it."""
    ran = [ch for ch in chains if any(c["command"] == name for c in ch["calls"])]
    return _corpus_mean(
        ran, lambda ch: sum(c["s"] for c in ch["calls"] if c["command"] == name))


def _chain_seconds(workload, chains):
    return sum(_command_seconds(chains, step[0])
               for step in dict.fromkeys(workload.chain))


def run_workload(workload, seed, seconds, trace, units):
    """Run one workload; returns (result, detail). ``units`` maps the names
    of the metrics to report to their units."""
    os.environ.update(BLAS_ENV)  # before numpy is imported here
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    work = ROOT / ".perfbench" / f"work-{workload.name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = perf_counter()
    try:
        setup = [] if trace else _setup_samples(env)
        # A traced run times every chain twice, untraced and traced, so it
        # uses half the whole-chain corpora and no light ones to stay within
        # the same time.
        count = ((workload.corpora + 1) // 2 if trace
                 else workload.corpora + workload.light_corpora)
        corpora = _make_corpora(workload, seed, work, count)
        raws = []
        deadline = perf_counter() + seconds
        for j, (directory, _) in enumerate(corpora):
            # One process per corpus, so each corpus's peak RSS is its own.
            # Each gets an even share of the time left; the worker runs at
            # least one chain whatever its share.
            plan = {
                "src": str(SRC),
                "seconds": max(0.0, deadline - perf_counter()) / (count - j),
                "traced": bool(trace),
                "chain": workload.chain_for(j),
                "corpus": str(directory),
                "targets": workloads.TRACED,
            }
            plan_path, raw_path = work / f"plan{j}.json", work / f"raw{j}.json"
            plan_path.write_text(json.dumps(plan))
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), str(raw_path)],
                env=env, capture_output=True, text=True,
                timeout=max(10.0, RUN_LIMIT_S - (perf_counter() - started)))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
            raw = json.loads(raw_path.read_text())
            for chain in raw["plain"] + raw.get("traced", []):
                chain["corpus"] = j
            raws.append(raw)
        return _summarize(workload, raws, corpora, setup, trace, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summarize(workload, raws, corpora, setup, trace, units):
    problems = []
    for raw in raws:
        if Path(raw["gpcrsvm"]).resolve().parent.parent != SRC:
            problems.append(f"gpcrsvm was imported from {raw['gpcrsvm']}, not {SRC}")
    plain = [c for raw in raws for c in raw["plain"]]
    traced = [c for raw in raws for c in raw.get("traced", ())]
    references = {}
    attempted = failed = 0
    failures = []
    for chain in plain + traced:
        ref = references.get(chain["corpus"])
        if ref is None:
            references[chain["corpus"]] = chain
            errors = _check_reference(chain, workload, corpora[chain["corpus"]][1].truth())
        else:
            errors = _check_repeat(chain, ref)
        for i, msgs in _check_fits(chain).items():
            errors.setdefault(i, []).extend(msgs)
        for i, call in enumerate(chain["calls"]):
            attempted += call["runs"]
            failed += call["bad_repeats"]
            msgs = list(errors.get(i, ()))
            if call["code"] != 0:
                msgs.insert(0, f"exit {call['code']}: {call['error'] or call['stderr']}")
            if call["bad_repeats"]:
                msgs.append(f"{call['bad_repeats']} repeat(s) failed or changed output")
            if msgs:
                failed += 1
                failures.append({"argv": call["argv"], "errors": msgs[:5]})

    chain_s = _chain_seconds(workload, plain)
    metrics = {}
    samples = {"corpora": len(raws), "chains": len(plain),
               "command_runs": sum(c["runs"] for ch in plain for c in ch["calls"])}
    if not trace:
        samples["setup"] = len(setup)
        metrics["setup_s"] = statistics.median(setup)
        metrics["chain_s"] = chain_s
        for command in dict.fromkeys(step[0] for step in workload.chain):
            metrics[command.replace("-", "_") + "_s"] = _command_seconds(plain, command)
        metrics["peak_rss_mb"] = statistics.median(raw["peak_rss_mb"] for raw in raws)
        accuracies = []
        for ref in references.values():
            cv = next((c for c in ref["calls"] if c["command"] == "cross-validate"), None)
            if cv is None:  # a light corpus
                continue
            cv_path = workloads.output_path(cv["argv"])
            accuracies.append(json.loads(cv_path.read_text())["accuracy"]
                              if cv_path.is_file() else 0.0)
        metrics["cv_accuracy_pct"] = statistics.fmean(accuracies)
    else:
        samples["traced_chains"] = len(traced)
        for key in traced[0]["layers"]:
            metrics[key] = _corpus_mean(traced, lambda c: c["layers"][key])
        traced_s = _chain_seconds(workload, traced)
        metrics["trace_overhead_pct"] = 100.0 * (traced_s / chain_s - 1.0)
        called = set()
        for c in traced:
            called.update(k for k, v in c["traced_calls"].items() if v)
        missing = sorted(workload.expected_calls() - called)
        if missing:
            problems.append(f"traced functions never called: {missing}")
    absent = [n for n in units if n not in metrics]
    if absent:
        problems.append(f"metrics not measured: {absent}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n in metrics},
    }
    detail = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": raws[0]["numpy"],
            "blas": raws[0]["blas"],
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "nproc": NPROC,
            "git_commit": _git_commit(),
        },
        "samples": samples,
        "problems": problems,
        "failures": failures[:20],
        "all_metrics": metrics,
    }
    return result, detail


def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpcrsvm" / "cli.py").is_file():
        print(f"error: no gpcrsvm sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run_workload(
        workload, args.seed, args.seconds, args.trace, metric_units(args.trace))
    record = dict(detail, workload=args.workload, seed=args.seed, trace=args.trace,
                  result=result)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in detail["problems"] + [str(f) for f in detail["failures"]]:
        print(f"check: {line}")
    print("env " + json.dumps({**detail["env"], **detail["samples"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
