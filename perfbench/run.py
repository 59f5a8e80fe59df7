"""Benchmark harness for the pattern-detection pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``registry-cold`` — the 17 Table III kernels through ``analyze_one``,
  serially in one process, no profile cache;
* ``corpus-stream`` — generated corpus programs, analysed cold as
  ``corpus.score.analyze_entry`` does, serially in one process;
* ``service-mixed`` — a closed loop of 2 clients against a 2-worker
  ``repro serve`` daemon (thread backend).

A reference sampler (``hostref.py``) runs beside the whole run, and the
end-to-end times are scaled by it to a nominal host; every such line also
gives the time as measured.

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it reports per-layer metrics from spans the harness opens
around its calls into each layer, and writes the spans to
``.perfbench/spans-<workload>-s<seed>.json``.  Every metric is printed
with its sample count; the last line of standard output is the JSON
result.  The run builds nothing: it runs the package from ``src/``, and
exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hostref import NOMINAL_MS, HostRef, Sampler  # noqa: E402
from stats import Metric, TooFewSamples, median, percentile, report  # noqa: E402

WORKLOADS = ("registry-cold", "corpus-stream", "service-mixed")
#: set-ups per run; ``setup_s`` is their median
SETUP_RUNS = 3
#: per-layer metrics, in the order ``BENCHMARK.json`` lists them
LAYER_METRICS = (
    ("lang.parse_ms", "ms"),
    ("runtime.exec_ms", "ms"),
    ("runtime.events", "count"),
    ("profiling.profile_ms", "ms"),
    ("profiling.fold_ratio", "ratio"),
    ("profiling.dep_events", "count"),
    ("profiling.summarized_ratio", "ratio"),
    ("profiling.digest_ms", "ms"),
    ("patterns.detect_ms", "ms"),
    ("patterns.evidence", "count"),
    ("sim.simulate_ms", "ms"),
    ("corpus.generate_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.polls_per_job", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
)
#: a child run that has not ended by then is killed and the run fails
CHILD_TIMEOUT_S = 170.0


class HarnessError(RuntimeError):
    """The run cannot produce a result."""


def _child(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool, spans: Path | None) -> tuple[list[float], dict]:
    """Run ``inproc.py`` in a fresh interpreter; returns ([start, end] of
    its set-up in ``perf_counter`` time, its JSON)."""
    cmd = [sys.executable, str(HERE / "inproc.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"{workload} child exited with status {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return [start, doc["setup_done"]], doc


def run_inproc(workload: str, seed: int, seconds: float, trace: int,
               spans: Path | None) -> tuple[list[list[float]], dict, dict]:
    setups = [_child(workload, seed, seconds, trace, True, None)[0]
              for _ in range(SETUP_RUNS - 1)]
    setup_s, doc = _child(workload, seed, seconds, trace, False, spans)
    setups.append(setup_s)
    return setups, doc["outcome"], {}


def run_service(seed: int, seconds: float, trace: int,
                spans: Path | None) -> tuple[list[list[float]], dict, dict]:
    from dataclasses import asdict

    import service_mixed

    workdir = ROOT / ".perfbench" / f"service-{os.getpid()}"
    try:
        doc = service_mixed.run_workload(ROOT, workdir, seed, seconds, bool(trace),
                                         SETUP_RUNS, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return doc["setups_s"], asdict(doc["outcome"]), doc["notes"]


def end_to_end(setups: list[list[float]], out: dict, ref: HostRef) -> list[Metric]:
    """The end-to-end metrics, each time scaled by *ref* over the interval
    it was measured in (*setups* are [start, end] intervals); throughput
    and CPU are medians over rounds."""
    raw = out["latencies_ms"]
    lat = [ms * ref.scale(start, end) for ms, (start, end) in zip(raw, out["timed"])]
    done = len(lat)
    rounds = [(end - start, ref.scale(start, end, 0.0), cpu, n)
              for start, end, cpu, n in out["rounds"] if n]
    if done == 0 or not rounds:
        raise HarnessError("no program completed")
    setup_s = [end - start for start, end in setups]
    return [
        Metric("setup_s", median([s * ref.scale(*iv, 0.0) for s, iv in zip(setup_s, setups)]),
               "s", len(setups), median(setup_s)),
        Metric("programs_per_s", median([n / (wall * k) for wall, k, _, n in rounds]),
               "1/s", len(rounds), median([n / wall for wall, _, _, n in rounds])),
        Metric("latency_p50_ms", median(lat), "ms", done, median(raw)),
        Metric("latency_p90_ms", percentile(lat, 90), "ms", done, percentile(raw, 90)),
        Metric("cpu_ms_per_program",
               median([cpu * k * 1000.0 / n for _, k, cpu, n in rounds]), "ms",
               len(rounds), median([cpu * 1000.0 / n for _, _, cpu, n in rounds])),
        Metric("peak_rss_mb", out["peak_rss_mb"], "MB", 1),
        Metric("verdict_accuracy", out["accurate"] / out["attempted"], "ratio",
               out["attempted"]),
    ]


def per_layer(out: dict) -> list[Metric]:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    measured = {m["name"]: m for m in out["layers"]}
    return [Metric(name, measured[name]["value"], unit, measured[name]["samples"])
            if name in measured else Metric(name, 0.0, unit, 0)
            for name, unit in LAYER_METRICS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pattern-detection benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a shell that starts this run in the background leaves SIGINT ignored,
    # and children inherit that; the daemon's clean shutdown needs SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spans = (ROOT / ".perfbench" / f"spans-{args.workload}-s{args.seed}.json"
             if args.trace else None)
    try:
        sampler = Sampler()
        try:
            if args.workload == "service-mixed":
                setups, out, notes = run_service(args.seed, args.seconds, args.trace, spans)
            else:
                setups, out, notes = run_inproc(args.workload, args.seed, args.seconds,
                                                args.trace, spans)
        except BaseException:
            sampler.kill()
            raise
        ref = sampler.stop()
    except (HarnessError, TooFewSamples, subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out['attempted']} attempted, {out['failed']} failed, "
          f"setups measured {[round(end - start, 4) for start, end in setups]}")
    if out["fingerprint"]:
        print(f"fingerprint {out['fingerprint']}")
    print(f"host_ref_ms {ref.mean_ms():.6f} (n={len(ref.cpus)}; nominal {NOMINAL_MS})")
    for key, value in notes.items():
        print(f"{key} {value}")
    for message in out["errors"]:
        print(f"FAILED {message}")
    try:
        metrics = per_layer(out) if args.trace else end_to_end(setups, out, ref)
    except (HarnessError, TooFewSamples) as exc:
        # e.g. so many programs failed that too few samples are left
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for metric in metrics:
        print(metric.line())
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": report(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
