"""The two in-process workloads: ``registry-cold`` and ``corpus-stream``.

Each runs serially in one process, a child of ``run.py``, so that every
set-up pays for a fresh interpreter and its imports:

    python perfbench/inproc.py WORKLOAD --seed N --seconds S --trace 0|1
                               [--setup-only] [--spans PATH]

The child prints one JSON line: the ``time.perf_counter()`` at which set-up
ended, then (unless ``--setup-only``) the timed phase's samples, counts
and checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import (  # noqa: E402
    LayerCounts, layer_metrics, overhead_metric, traced_corpus, traced_registry,
)
import spans  # noqa: E402
from repro.obs.tracing import Tracer  # noqa: E402
from stats import Metric  # noqa: E402

#: samples a run must hold so that its p90 has 10 beyond it
MIN_SAMPLES = 100
#: programs generated for corpus-stream; the timed phase cycles over them.
#: With 400, the share of rule false positives, and so verdict_accuracy,
#: moved by 0.019 (IQR over median) from seed to seed; with 800, by 0.010
CORPUS_PROGRAMS = 800
#: a registry program that runs longer than this counts as failed
PROGRAM_TIMEOUT_S = 60.0
#: registry-cold stops after this many passes even if too few programs
#: succeeded for the p90; the failures are then reported, not the p90
MAX_PASSES = 12


@dataclass
class Outcome:
    """What one timed phase measured and checked.

    Every time is kept with the ``perf_counter`` interval it was measured
    over, so that ``run.py`` can scale it by the host reference samples
    taken beside it (:mod:`hostref`).
    """

    latencies_ms: list[float] = field(default_factory=list)
    #: [start, end] of each latency
    timed: list[list[float]] = field(default_factory=list)
    #: one [start, end, cpu_s, programs_completed] per pass, cycle or
    #: window; throughput and CPU per program are medians over these rounds
    rounds: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    accurate: int = 0
    errors: list[str] = field(default_factory=list)
    #: digest over every program's verdict (and profile digest): equal
    #: across runs at one seed
    fingerprint: str = ""
    peak_rss_mb: float = 0.0
    layers: list[dict] = field(default_factory=list)

    def add_latency(self, start: float, end: float) -> None:
        self.latencies_ms.append((end - start) * 1000.0)
        self.timed.append([start, end])

    def add_round(self, start: float, end: float, cpu_s: float, completed: int) -> None:
        self.rounds.append([start, end, cpu_s, completed])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _fingerprint(verdicts: dict[str, object]) -> str:
    text = json.dumps(verdicts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class RegistryCold:
    """Registry kernels through ``analyze_one``, no profile cache.

    Passes run in a seeded order until *seconds* are up and at least
    *min_samples* programs have succeeded (at most :data:`MAX_PASSES`);
    the heap is collected before each program, so its time does not
    depend on which program ran before it.
    A program fails when it raises, times out, gets another label than
    ``expected_label``, or gets another profile digest than in its first
    pass.
    """

    def __init__(self, seed: int, names: tuple[str, ...] | None = None) -> None:
        # set-up pays the imports the first analysis would otherwise pay
        import repro.patterns.engine  # noqa: F401
        import repro.sim  # noqa: F401
        from repro.bench_programs.registry import all_benchmarks

        specs = [s for s in all_benchmarks() if names is None or s.name in names]
        self.names = [s.name for s in specs]
        self.expected = {s.name: s.expected_label for s in specs}
        self.rng = random.Random(seed)

    def _order(self) -> list[str]:
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def _check(self, out: Outcome, outcome, digests: dict[str, str]) -> None:
        name = outcome.name
        first = digests.setdefault(name, outcome.profile_digest)
        if outcome.label != self.expected[name]:
            out.fail(f"{name}: label {outcome.label!r} != {self.expected[name]!r}")
        elif first != outcome.profile_digest:
            out.fail(f"{name}: profile digest changed between passes")
        else:
            out.accurate += 1

    def run(self, seconds: float, min_samples: int = MIN_SAMPLES) -> Outcome:
        from repro.runtime.parallel import analyze_one, call_with_timeout

        out = Outcome()
        digests: dict[str, str] = {}
        t0 = time.perf_counter()
        while True:
            w0, c0, done = time.perf_counter(), time.process_time(), len(out.latencies_ms)
            for name in self._order():
                out.attempted += 1
                gc.collect()  # no program pays for the garbage of the one before
                t = time.perf_counter()
                try:
                    outcome = call_with_timeout(analyze_one, name, None, PROGRAM_TIMEOUT_S)
                except Exception as exc:  # any raise or timeout is a failed program
                    out.fail(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                out.add_latency(t, time.perf_counter())
                self._check(out, outcome, digests)
            out.add_round(w0, time.perf_counter(), time.process_time() - c0,
                          len(out.latencies_ms) - done)
            if len(out.rounds) >= MAX_PASSES or (
                    time.perf_counter() - t0 >= seconds
                    and len(out.latencies_ms) >= min_samples):
                break
        out.fingerprint = _fingerprint(digests)
        return out

    def traced(self, seconds: float, tracer: Tracer) -> Outcome:
        """Pass 1 runs each program untraced, then traced, and compares the
        outcomes; later passes run traced only, until *seconds* are up."""
        from repro.runtime.parallel import analyze_one

        out = Outcome()
        counts = LayerCounts()
        reference: dict[str, object] = {}
        untraced_ms: dict[str, float] = {}
        digests: dict[str, str] = {}
        t0 = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - t0 < seconds:
            for name in self._order():
                pid = f"{name}#{passes}"
                out.attempted += 1
                try:
                    if passes == 0:
                        t = time.perf_counter()
                        reference[name] = analyze_one(name)
                        untraced_ms[pid] = (time.perf_counter() - t) * 1000.0
                    outcome = traced_registry(tracer, pid, name, counts)
                except Exception as exc:
                    out.fail(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                if outcome != reference[name]:
                    out.fail(f"{name}: traced outcome differs from analyze_one")
                    continue
                self._check(out, outcome, digests)
            passes += 1
        out.fingerprint = _fingerprint(digests)
        metrics = layer_metrics(tracer, counts) + [overhead_metric(tracer, untraced_ms)]
        out.layers = [asdict(m) for m in metrics]
        return out


def corpus_entries(seed: int, count: int):
    """Generate *count* adversarial-rotation programs as corpus entries."""
    from repro.corpus import generate_programs
    from repro.corpus.suite import CorpusEntry

    entries = []
    for index, tp in enumerate(generate_programs(count, seed, adversarial=True)):
        entries.append(CorpusEntry(
            name=f"p{index:04d}-{tp.template}",
            template=tp.template,
            source=tp.source,
            entry=tp.entry,
            arg_specs=tuple(tuple(a) for a in tp.arg_specs),
            truth=dict(tp.truth),
            transforms=tuple(tp.transforms),
            source_digest=hashlib.sha256(tp.source.encode()).hexdigest(),
        ))
    return entries


class CorpusStream:
    """Generated corpus programs, each analysed cold as ``analyze_entry`` does.

    The timed phase runs whole cycles over the generated programs, so the
    accuracy of a run does not depend on where it stopped.  A program
    fails when it raises or when its verdict differs from its verdict in
    the first cycle; a verdict that misses the truth label lowers
    ``verdict_accuracy`` but is not a failure.
    """

    def __init__(self, seed: int, count: int = CORPUS_PROGRAMS) -> None:
        import repro.corpus.score  # noqa: F401
        import repro.patterns.engine  # noqa: F401

        t = time.perf_counter()
        self.entries = corpus_entries(seed, count)
        self.generate_ms = (time.perf_counter() - t) * 1000.0 / count

    @staticmethod
    def _score(out: Outcome, entry, predicted: dict[str, bool],
               verdicts: dict[str, dict[str, bool]]) -> None:
        first = verdicts.setdefault(entry.name, predicted)
        if first != predicted:
            out.fail(f"{entry.name}: verdict changed between cycles")
        elif all(predicted[dim] == bool(truth) for dim, truth in entry.truth.items()):
            out.accurate += 1

    def run(self, seconds: float) -> Outcome:
        from repro.corpus.score import analyze_entry, predicted_patterns

        out = Outcome()
        verdicts: dict[str, dict[str, bool]] = {}
        t0 = time.perf_counter()
        while True:
            w0, c0, done = time.perf_counter(), time.process_time(), len(out.latencies_ms)
            for entry in self.entries:
                out.attempted += 1
                t = time.perf_counter()
                try:
                    predicted = predicted_patterns(analyze_entry(entry))
                except Exception as exc:
                    out.fail(f"{entry.name}: {type(exc).__name__}: {exc}")
                    continue
                out.add_latency(t, time.perf_counter())
                self._score(out, entry, predicted, verdicts)
            out.add_round(w0, time.perf_counter(), time.process_time() - c0,
                          len(out.latencies_ms) - done)
            if time.perf_counter() - t0 >= seconds:
                break
        out.fingerprint = _fingerprint(verdicts)
        return out

    def traced(self, seconds: float, tracer: Tracer) -> Outcome:
        """Cycle 1 runs each program untraced, then traced, and compares the
        verdicts; later cycles run traced only, until *seconds* are up."""
        from repro.corpus.score import analyze_entry, predicted_patterns

        out = Outcome()
        counts = LayerCounts()
        untraced_ms: dict[str, float] = {}
        verdicts: dict[str, dict[str, bool]] = {}
        t0 = time.perf_counter()
        cycles = 0
        while cycles == 0 or time.perf_counter() - t0 < seconds:
            for entry in self.entries:
                pid = f"{entry.name}#{cycles}"
                out.attempted += 1
                try:
                    if cycles == 0:
                        t = time.perf_counter()
                        reference = predicted_patterns(analyze_entry(entry))
                        untraced_ms[pid] = (time.perf_counter() - t) * 1000.0
                        verdicts[entry.name] = reference
                    predicted = traced_corpus(tracer, pid, entry, counts)
                except Exception as exc:
                    out.fail(f"{entry.name}: {type(exc).__name__}: {exc}")
                    continue
                self._score(out, entry, predicted, verdicts)
            cycles += 1
        out.fingerprint = _fingerprint(verdicts)
        metrics = layer_metrics(tracer, counts) + [
            overhead_metric(tracer, untraced_ms),
            Metric("corpus.generate_ms", self.generate_ms, "ms", len(self.entries)),
        ]
        out.layers = [asdict(m) for m in metrics]
        return out


WORKLOADS = {"registry-cold": RegistryCold, "corpus-stream": CorpusStream}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    doc: dict = {"setup_done": time.perf_counter()}
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            outcome = workload.traced(args.seconds, tracer)
            if args.spans:
                spans.dump(tracer.finished(), Path(args.spans))
        else:
            outcome = workload.run(args.seconds)
        outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc["outcome"] = asdict(outcome)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
