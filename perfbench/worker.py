"""Runs a workload's CLI chain on one corpus in this process, closed loop,
and writes the raw timings as JSON.

Usage: python3 perfbench/worker.py PLAN.json RAW.json

The plan (written by run.py) gives the source tree, the chain, the corpus
directory, the time budget and whether to follow the untraced chains with
traced ones. Chains repeat while the next one is expected to fit in the
budget, and at least one always runs. Untraced passes repeat short commands
within a chain to steady their median; a traced run times each command
once, untraced and then traced.
"""

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans  # the benchmark's own modules, next to this script
import workloads

MIN_COMMAND_S = 0.6  # short commands repeat up to this much time per chain
MAX_RUNS = 50


def run_command(cli, argv):
    # Start from a collected heap, as a fresh CLI process would, so one
    # call's garbage is not collected on the next call's time.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed call, not a failed run
            code = None
            error = traceback.format_exc()
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue(), error


def run_chain(cli, chain, in_dir, out_dir, min_s):
    """One pass of the chain. Each command repeats until its runs add up to
    min_s seconds and reports the median run; a repeat is bad when it exits
    non-zero or its stdout or output file differs from the first run's."""
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    for template in chain:
        argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))
                for a in template]
        code, elapsed, stdout, stderr, error = run_command(cli, argv)
        times = [elapsed]
        bad_repeats = 0
        first_output = None
        output = workloads.output_path(argv)
        while sum(times) < min_s and len(times) < MAX_RUNS:
            if output is not None and output.is_file():
                if first_output is None:
                    first_output = output.read_bytes()
                # Truncating an existing file makes ext4 flush it on close;
                # every run writes a new file, as the first one did.
                output.unlink()
            again, elapsed, again_stdout, _, _ = run_command(cli, argv)
            times.append(elapsed)
            if again != 0 or again_stdout != stdout or (
                    first_output is not None
                    and (not output.is_file() or output.read_bytes() != first_output)):
                bad_repeats += 1
        calls.append({"command": argv[0], "argv": argv, "code": code,
                      "s": statistics.median(times), "runs": len(times),
                      "bad_repeats": bad_repeats, "stdout": stdout,
                      "stderr": stderr, "error": error})
    return {"chain_s": sum(c["s"] for c in calls), "calls": calls,
            "out": str(out_dir)}


def run_chains(cli, plan, budget, label, min_s, tracer=None):
    """Passes of the chain while they fit in budget, and the process's peak
    RSS in MB after the first pass (later passes add allocator noise, not
    workload memory)."""
    chains = []
    peak_rss_mb = None
    corpus = Path(plan["corpus"])
    start = perf_counter()
    while True:
        chain_start = perf_counter()
        result = run_chain(cli, plan["chain"], corpus, corpus / f"{label}{len(chains)}",
                           min_s)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            layers, fits, calls = spans.reduce_chain(tracer.take(), result["chain_s"])
            result.update(layers=layers, fits=fits, traced_calls=calls)
        chains.append(result)
        last = perf_counter() - chain_start
        if perf_counter() - start + last > budget:
            return chains, peak_rss_mb


def main():
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    import numpy
    from gpcrsvm import cli

    raw = {}
    if plan["traced"]:
        # Single runs on both sides, so traced and untraced chains compare
        # like with like and per-layer counts are per pass.
        budget = plan["seconds"] / 2
        raw["plain"], raw["peak_rss_mb"] = run_chains(cli, plan, budget, "plain", 0.0)
        tracer = spans.Tracer()
        tracer.install(plan["targets"])
        raw["traced"], _ = run_chains(cli, plan, budget, "traced", 0.0, tracer)
    else:
        raw["plain"], raw["peak_rss_mb"] = run_chains(
            cli, plan, plan["seconds"], "plain", MIN_COMMAND_S)
    raw["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    raw["blas"] = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    raw["gpcrsvm"] = cli.__file__
    Path(sys.argv[2]).write_text(json.dumps(raw))


if __name__ == "__main__":
    main()
