"""Run one workload of the qemine benchmark and print its result.

    python3 perfbench/run.py --workload mine-bucc --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a source checkout: it imports ``qemine`` from
the checkout's ``src`` directory, reads metric names and units from the
checkout's ``BENCHMARK.json``, and exits with status 2, printing no
result, when either is missing.

The runner is a closed loop with one caller in one process and one BLAS
thread.  It sets the workload up ``SETUP_REPS`` times from the seed
(``setup_s`` is their mean), then runs the workload's operations
(``workloads.OPS``) for ``--seconds``: each once in order, then always
the one with the fewest seconds so far relative to its weight, so that
every operation runs several times spread over the whole run.  Each
timing metric is the mean over an operation's runs, less the fastest and
slowest tenth: the host switches between a fast and a slow speed, so
run times fall in two clusters, and a median would jump between them
where a mean follows the share of time spent in each.  Every operation
counts as attempted, and as failed if it raises or fails a check;
``correct`` is false if any operation failed or a run-level check did
not hold (identical set-up files and outputs across runs, traced self
time within wall time).

Timings are scaled to a host of nominal speed.  On a shared host the
same Python code runs up to half again as slow in some minutes as in
others.  A fixed pure-Python kernel (``workloads.reference_seconds``)
runs before every set-up and twice before every operation; every
end-to-end time is scaled by ``NOMINAL_REFERENCE_S`` over the kernel's
trimmed mean seconds in the same run (rates are divided by that
factor).  The kernel uses no ``qemine`` code, so a change to the
package moves the scaled figures as much as the wall-clock ones.  The results file keeps
the wall seconds of every run, their medians, the kernel seconds and
the factor.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` prints the
per-layer metrics instead: the set-up runs once with the tracer
installed and the operations once untraced, then untraced and traced
rounds (every operation once, in order) alternate.  A layer's seconds
are its wall-clock self time in one round (the median over traced
rounds) and its counters those of one round; ``synth`` and ``augment``
run only in set-up, so theirs come from the traced set-up.
``trace.overhead_s`` is the traced minus the untraced round time, and
``trace.unattributed_s`` the part of a traced round that no layer
covers.  The results file adds the self seconds per layer of the set-up
and of each operation.

The last line of standard output is the result; the line before it
holds the provenance.  Both, and in a traced run every span, are also
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 2
# Seconds ``workloads.reference_seconds`` takes on a host of nominal speed
# (2 vCPUs of a shared x86-64 host); see the module docstring.
NOMINAL_REFERENCE_S = 0.015
# One BLAS thread: no more than nproc, and no oversubscription on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

QEMINE_MODULES = ("augment", "backprop", "corpus", "estimators", "features", "mining",
                  "model", "optim", "synth", "training")


class Tally:
    """Operations attempted and failed, plus run-level checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def _provenance(workloads, spec, why, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qemine").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": spec.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.describe(spec),
        "git_rev": _git_rev(),
        "src_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "setup_reps": SETUP_REPS,
        "nominal_reference_s": NOMINAL_REFERENCE_S,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _trimmed_mean(values, cut=0.1):
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k]) if values else float("nan")


def _setup_many(workloads, spec, seed, workdir, reps, tally, reference=None):
    """Set up ``reps`` times; every repetition must write identical files.
    Returns the seconds of each and the inputs.  With ``reference``, the
    host-speed kernel runs before each repetition and its seconds are
    appended there."""
    times, digests, inputs = [], set(), None
    for rep in range(reps):
        target = os.path.join(workdir, f"setup{rep}")
        tally.attempted += 1
        if reference is not None:
            reference.append(workloads.reference_seconds())
        start = time.perf_counter()
        try:
            inputs = workloads.setup(spec, seed, target)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            tally.failures.append(f"setup: {type(exc).__name__}: {exc}")
            return times, None
        times.append(time.perf_counter() - start)
        digests.add(inputs["digest"])
        if rep + 1 < reps:
            shutil.rmtree(target)
    if len(digests) > 1:
        tally.problems.append(f"set-up repetitions wrote different files: {sorted(digests)}")
    return times, inputs


def _measure(workloads, spec, session, seconds) -> dict:
    """Run every operation once in order, then keep running the one with
    the fewest seconds so far relative to its weight, while another run of
    it still fits in ``seconds``.  Returns the seconds of each successful run."""
    samples = {name: [] for name in workloads.OPS}
    spent = dict.fromkeys(workloads.OPS, 0.0)
    runs = dict.fromkeys(workloads.OPS, 0)
    last = dict.fromkeys(workloads.OPS, 0.0)
    start = time.perf_counter()
    while True:
        name = min(workloads.OPS, key=lambda n: spent[n] / spec.weights.get(n, 1))
        if all(runs.values()) and time.perf_counter() - start + last[name] > seconds:
            return samples
        last[name], ok = session.run(name)
        spent[name] += last[name]
        runs[name] += 1
        if ok:
            samples[name].append(last[name])


def _loop(seconds, body):
    """Call ``body`` at least once, then while another call still fits in ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    results = []
    while not results or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - began
    return results


def _end_to_end(session, samples, setup_times, scale) -> dict:
    """End-to-end metrics: trimmed means of the wall seconds times ``scale``."""
    def seconds(values):
        return _trimmed_mean(values) * scale

    def rate(count, op):
        return session.values[count] / seconds(samples[op]) if count in session.values else None

    return {
        "setup_s": seconds(setup_times),
        "train_pairs_per_s": rate("train_pairs", "fit"),
        "save_s": seconds(samples["save"]),
        "load_s": seconds(samples["load"]),
        "mine_tune_s": seconds(samples["mine_tune"]),
        "mine_s": seconds(samples["mine"]),
        "mine_f1": session.values.get("mine_f1"),
        "score_pairs_per_s": rate("score_pairs", "predict"),
        "qe_pearson": session.values.get("qe_pearson"),
        "search_rows_per_s": rate("search_rows", "search"),
        "search_acc": session.values.get("search_acc"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _finish(session, tally) -> None:
    tally.attempted += session.attempted
    tally.failures.extend(session.failures)


def _run_untraced(workloads, spec, args, workdir, tally):
    reference = []
    setup_times, inputs = _setup_many(workloads, spec, args.seed, workdir, SETUP_REPS, tally,
                                      reference)
    if inputs is None:
        return {}, {}
    session = workloads.Session(spec, args.seed, inputs)
    samples = _measure(workloads, spec, session, args.seconds)
    _finish(session, tally)
    reference += session.reference
    scale = NOMINAL_REFERENCE_S / _trimmed_mean(reference)
    details = {"runs": {name: len(t) for name, t in samples.items()},
               "digests": session.digests, "values": session.values,
               "tune_gold": inputs["tune_gold_size"], "eval_gold": inputs["eval_gold_size"],
               "scale": scale, "setup_wall_s": setup_times, "op_wall_s": samples,
               "reference_s": reference,
               "op_median_wall_s": {name: _median(t) for name, t in samples.items()}}
    return _end_to_end(session, samples, setup_times, scale), details


def _run_traced(workloads, tracing, spec, args, workdir, tally):
    import importlib

    modules = {name: importlib.import_module(f"qemine.{name}") for name in QEMINE_MODULES}
    tracer = tracing.Tracer()

    def traced(fn, *fn_args):
        first, before = tracer.mark(), dict(tracer.counters)
        tracer.install(modules)
        began = time.perf_counter()
        try:
            result = fn(*fn_args)
        finally:
            wall = time.perf_counter() - began
            tracer.uninstall()
        last = tracer.mark()
        if tracer.root_time(first, last) > wall:
            tally.problems.append("traced self times exceed the wall time")
        counts = {k: tracer.counters[k] - before[k] for k in before}
        return result, wall, tracer.self_times(first, last), counts

    (_, inputs), setup_wall, setup_self, setup_counts = traced(
        _setup_many, workloads, spec, args.seed, workdir, 1, tally)
    if inputs is None:
        return {}, {}
    session = workloads.Session(spec, args.seed, inputs)
    session.run_all()  # the first runs set the state and the digests
    snapshot = {}

    def one_round():
        began = time.perf_counter()
        session.run_all()
        untraced_wall = time.perf_counter() - began
        first, spans = tracer.mark(), len(session.spans)
        tracer.unique_texts = set()
        op_seconds, wall, self_times, counts = traced(session.run_all)
        if not snapshot:  # the first traced round defines the counters
            ops = session.spans[spans:]
            mined = [(start, end) for name, start, end in ops if name == "mine"]
            shortlist = [c for t, c in tracer.shortlists if any(s <= t <= e for s, e in mined)]
            snapshot.update(unique=len(tracer.unique_texts), shortlist=shortlist[:1],
                            ops=tracer.breakdown(first, tracer.mark(), ops))
        return op_seconds, wall, self_times, counts, untraced_wall

    rounds = _loop(args.seconds, one_round)
    _finish(session, tally)
    if any(r[3] != rounds[0][3] for r in rounds):
        tally.problems.append("counters differ between traced rounds over the same inputs")

    counts = rounds[0][3]
    metrics = {f"{layer}_s": _median([r[2][layer] for r in rounds]) for layer in tracing.LAYERS}
    for layer in tracing.SETUP_LAYERS:
        metrics[f"{layer}_s"] = setup_self[layer]
    metrics.update({
        "features.texts": counts["features.texts"],
        "features.unique_text_ratio": snapshot["unique"] / max(counts["features.texts"], 1),
        "backprop.rows": counts["backprop.rows"],
        "optim.steps": counts["optim.steps"],
        "optim.elems_per_step": counts["optim.elems"] / max(counts["optim.steps"], 1),
        "model.bytes": counts["model.bytes"],
        "estimators.pairs_scored": counts["estimators.pairs_scored"],
        "mining.candidates": counts["mining.candidates"],
        "mining.mutual_best_calls": counts["mining.mutual_best_calls"],
        "mining.shortlist_gold_recall": _shortlist_recall(snapshot["shortlist"],
                                                          session.eval_corpus),
    })
    traced_wall = _median([r[1] for r in rounds])
    metrics["trace.overhead_s"] = traced_wall - _median([r[4] for r in rounds])
    metrics["trace.unattributed_s"] = traced_wall - _median([sum(r[2].values()) for r in rounds])
    details = {"spans": tracer.spans, "setup_wall_s": setup_wall,
               "traced_round_s": [r[1] for r in rounds],
               "untraced_round_s": [r[4] for r in rounds],
               "setup_layers_s": setup_self, "setup_counters": setup_counts,
               "op_layers_s": snapshot["ops"], "op_seconds": rounds[0][0],
               "digests": session.digests}
    return metrics, details


def _shortlist_recall(shortlist, bucc) -> float:
    """Share of the evaluation half's gold pairs inside the top-n candidate
    set built while mining it."""
    if not shortlist or bucc is None or not bucc.gold:
        return float("nan")
    ids_a, ids_b = list(bucc.side_a), list(bucc.side_b)
    candidates = {(ids_a[i], ids_b[j]) for i, j in shortlist[0]}
    return len(candidates & bucc.gold) / len(bucc.gold)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still removes its work directory (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    manifest_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qemine" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"error: {ROOT} holds no qemine sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    whys = {w["name"]: w["why"] for w in manifest["workloads"]}
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in whys or args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(whys)}",
              file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    spec = workloads.SPECS[args.workload]
    provenance = _provenance(workloads, spec, whys[spec.name], args)
    workdir = str(HERE / f".work-{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            values, details = _run_traced(workloads, tracing, spec, args, workdir, tally)
        else:
            values, details = _run_untraced(workloads, spec, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    missing = [name for name, m in metrics.items()
               if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
    if missing:
        tally.problems.append(f"no value for {missing}")
        for name in missing:
            metrics[name]["value"] = 0
    for message in tally.failures:
        print(f"FAILED {message}", file=sys.stderr)
    for message in tally.problems:
        print(f"CHECK {message}", file=sys.stderr)
    result = {"correct": not tally.failures and not tally.problems,
              "attempted": max(tally.attempted, 1), "failed": len(tally.failures),
              "metrics": metrics}

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = out / f"{spec.name}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    record = {"provenance": provenance, "result": result, "failures": tally.failures,
              "problems": tally.problems, "details": details}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
