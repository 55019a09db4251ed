"""vastsum benchmark.

    python3 perfbench/run.py --workload desk|paper --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`. The
workload's corpus is generated from the seed in a child process (not timed,
and not counted in peak memory). Rounds of set-up -> train -> eval -> decode
-> stability-report (see session.py) repeat for about S seconds. Each
reported time or rate is the median of its samples: one a round, and
INFER_REPEATS a round for eval and decode. Times are calibrated against a
reference pass run next to each timed phase (see speed.py); the wall-time
medians and every sample are printed too. With
--trace 1, untraced and traced rounds alternate; the traced ones give the
per-layer metrics, and the spans are written to
perfbench/out/spans-<workload>-seed<N>.csv.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
An operation (a video-step, an eval, a decode or a flip trial) fails when it
raises or fails its output check; error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def machine_info() -> list[str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [
        f"nproc: {nproc()}",
        f"python: {platform.python_version()} ({platform.machine()})",
        f"numpy: {numpy.__version__}  scipy: {scipy.__version__}",
        f"blas: {blas.get('name')} {blas.get('version')}  threads: {blas_threads()}",
    ]


def run_rounds(seconds: float, one_round) -> list:
    """Call one_round() while the next call would likely end before
    `seconds` plus half a round."""
    results, start = [], time.perf_counter()
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


RATES = {"train_steps_per_s": "steps/s", "eval_videos_per_s": "videos/s",
         "decode_videos_per_s": "videos/s", "stability_trials_per_s": "trials/s"}


def measured(sess, work: Path, seconds: int, failed: list[str]):
    """Rounds, each after a fresh load of the inputs; a metric is the median
    of its samples, so set-up samples spread over the run like the rest."""
    setups, wall_setups = [], []

    def one_round():
        calibrated, wall = sess.setup()
        setups.append(calibrated)
        wall_setups.append(wall)
        return sess.round(str(work / "round"))

    rounds = run_rounds(seconds, one_round)
    first = rounds[0]
    if any(r.digests != first.digests for r in rounds):
        failed.append("artifacts differ between rounds of one seed")
    fit_rho = sess.fit_rho(str(work / "round"))
    floor = sess.workload.min_fit_rho
    if floor is not None and not fit_rho >= floor:
        failed.append(f"fit_rho {fit_rho:.4f} below {floor}")
    if sess.cli_masks(str(work / "round"), str(SRC)) != first.masks:
        failed.append("`vastsum decode` masks differ from the library's")
    metrics = {"setup_s": (statistics.median(setups), "s")}
    references = sess.speed.references
    info = [f"rounds: {len(rounds)}  fit_rho: {fit_rho!r}",
            f"reference pass: median {statistics.median(references)!r} s over {len(references)},"
            f" min {min(references)!r}, max {max(references)!r}",
            f"samples setup_s: {setups}",
            f"wall setup_s: {statistics.median(wall_setups)!r} s"]
    for name, unit in RATES.items():
        samples = [value for r in rounds for value in r.samples[name]]
        metrics[name] = (statistics.median(samples), unit)
        info.append(f"samples {name}: {samples}")
        wall = statistics.median(value for r in rounds for value in r.wall[name])
        info.append(f"wall {name}: {wall!r} {unit}")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics, first.digests, info


def traced(sess, work: Path, seconds: int, failed: list[str], spans_path: Path):
    from speed import Speed
    from tracer import Tracer

    tracer = Tracer()
    # speed samples at the edges of phases only, so none lands inside a span
    sess.speed = Speed(sample_s=None)
    with tracer.install():
        sess.setup()
    plain, seen = [], []

    def pair():
        plain.append(sess.round(str(work / "plain")))
        with tracer.install():
            seen.append(sess.round(str(work / "traced")))

    run_rounds(seconds, pair)
    if any(r.digests != plain[0].digests for r in plain + seen):
        failed.append("traced artifacts differ from untraced ones")
    tracer.write_spans(str(spans_path))
    base = statistics.median(r.samples["train_steps_per_s"][0] for r in plain)
    with_trace = statistics.median(r.samples["train_steps_per_s"][0] for r in seen)
    metrics = tracer.layer_metrics()
    metrics["fit_rho"] = (sess.fit_rho(str(work / "plain")), "rho")
    metrics["trace.untraced_train_steps_per_s"] = (base, "steps/s")
    metrics["trace.traced_train_steps_per_s"] = (with_trace, "steps/s")
    metrics["trace.rate_ratio"] = (with_trace / base, "ratio")
    info = [f"pairs: {len(plain)}  spans: {len(tracer.spans)} -> {spans_path}",
            f"tracing overhead: traced {with_trace:.4f} / untraced {base:.4f} train steps/s"
            f" = {with_trace / base:.4f}"]
    return metrics, plain[0].digests, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vastsum benchmark")
    parser.add_argument("--workload", required=True, help="a name from session.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vastsum" / "__init__.py").is_file():
        print(f"error: no vastsum sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One process and one thread, so all the timed work runs on the thread
    # whose speed the reference passes sample (see speed.py).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from session import WORKLOADS, Session, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    for line in machine_info():
        print(line)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tally, failed = Tally(), []
    try:
        corpus_path = work / "corpus.json"
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--shape", spec.name,
             "--seed", str(args.seed), "--out", str(corpus_path)],
            check=True, timeout=170,
        )
        sess = Session(spec, args.seed, str(corpus_path), str(work), tally)
        try:
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
                metrics, digests, info = traced(sess, work, args.seconds, failed, spans)
            else:
                metrics, digests, info = measured(sess, work, args.seconds, failed)
        except Exception:
            traceback.print_exc()
            print(f"error: the {args.workload} workload raised; no result", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in info:
        print(line)
    for name, digest in digests.items():
        print(f"sha256 {name}: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted!r}")
    for problem in tally.problems + failed:
        print(f"check failed: {problem}")
    result = {
        "correct": tally.failed == 0 and not failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
