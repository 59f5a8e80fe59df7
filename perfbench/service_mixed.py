"""The ``service-mixed`` workload: a closed loop of 2 clients against a
``python -m repro serve`` daemon with the thread backend and 2 workers.

The daemon runs in its own process; the load generator is the harness
process, one thread per client connection.  Each client sends its next
job only after it has seen the previous one terminal.  Every 10 jobs of
a client hold a fixed mix (:data:`MIX_BLOCK`); the seed draws their order
and the programs:

* ``bench`` — a warm resubmission of a registry kernel (profile cache hit;
  two clients sending one kernel at once coalesce);
* ``repeat`` — a corpus source from the warm pool (profile cache hit);
* ``fresh`` — a (corpus source, input-data seed) pair never sent before
  (cache miss: profiles, writes the cache and the sqlite job store).  Each
  client walks its own pool of never-sent sources at data seed 0, then
  again at seed 1, and so on: the data seed is part of the profile cache
  key, so a fresh job stays a miss however many jobs a run sends.

The mix is an assumption, not a measurement: no recorded traffic of the
daemon exists.  It gives cache hits and misses, reads and writes of the
job store, and coalescing a share each, so a change that helps one of
them at the cost of another shows.

The corpus sources are generated once per run, before set-up.  Set-up
starts the daemon, waits until it answers ``/v1/health``, and sends one
warm-up pass (every kernel of :data:`KERNELS` and every warm-pool
source).  All waits poll at a small fixed interval and count their polls.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import procstat
import spans
from inproc import Outcome, corpus_entries
from layers import (
    LayerCounts, layer_metrics, overhead_metric, traced_corpus, traced_registry,
)
from repro.obs.tracing import Tracer
from stats import Metric, median

#: registry kernels the bench jobs draw from: every kernel whose cold
#: analysis takes under 0.2 s, so the warm-up pass stays short enough to
#: repeat three times per run
KERNELS = ("reg_detect", "ludcmp", "correlation", "bicg", "gesummv", "mvt", "rot-cc",
           "sort")
#: distinct corpus sources in the warm pool that ``repeat`` jobs draw from;
#: enough that no single program (a rule false positive, say) weighs much
#: in a run's accuracy or time
WARM_POOL = 128
#: distinct never-sent sources per client that ``fresh`` jobs walk through
FRESH_PER_CLIENT = 400
CLIENTS = 2
WORKERS = 2
#: the job kinds of every 10 consecutive jobs of a client, in a seeded
#: order; kernels and warm-pool sources are drawn the same way, each in
#: seeded rounds, so that runs at different seeds send the same mix
MIX_BLOCK = ("bench",) * 3 + ("repeat",) * 4 + ("fresh",) * 3
#: fixed interval between polls of one job, and of ``/v1/health``
POLL_S = 0.002
HEALTH_POLL_S = 0.001
STARTUP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
#: the timed phase is cut into this many windows; throughput and CPU per
#: job are medians over them
WINDOWS = 10
TERMINAL = ("done", "failed", "cancelled")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process with its own cache and job database."""

    def __init__(self, root: Path, workdir: Path) -> None:
        from repro.service.client import ServiceClient

        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        self._log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--workers", str(WORKERS), "--backend", "thread",
             "--cache-dir", str(workdir / "cache"), "--db", str(workdir / "jobs.db")],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(self.url, timeout=JOB_TIMEOUT_S, client_id="perfbench-setup")

    def wait_healthy(self) -> int:
        """Poll ``/v1/health`` every :data:`HEALTH_POLL_S`; returns the poll count."""
        from repro.service.client import ServiceError

        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        polls = 0
        while True:
            polls += 1
            try:
                self.client.health()
                return polls
            except (ServiceError, OSError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"daemon did not become healthy; see {self.workdir / 'daemon.log'}"
                    ) from None
                time.sleep(HEALTH_POLL_S)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then kill if it lingers; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def rounds(rng: random.Random, items):
    """Endless seeded rounds, each a fresh shuffle of *items*."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def wait_job(client, job_id: int) -> tuple[dict, int]:
    """Poll one job every :data:`POLL_S` until terminal; returns (record, polls)."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    polls = 0
    while True:
        record = client.job(job_id)
        polls += 1
        if record["state"] in TERMINAL:
            return record, polls
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {record['state']} after {JOB_TIMEOUT_S:g}s")
        time.sleep(POLL_S)


@dataclass
class Job:
    """One closed-loop job as the client saw it."""

    client: int
    kind: str
    key: str
    #: program id of the job's spans in a traced run
    pid: str
    submit_wall: float
    #: ``perf_counter`` at submission and when the client saw the job
    #: terminal, to place the job among the host reference samples
    submit_t: float = 0.0
    seen_t: float = 0.0
    #: seed of a source job's random input arrays
    data_seed: int = 0
    polls: int = 0
    record: dict | None = None
    error: str = ""


@dataclass
class Sources:
    """The corpus sources the clients send, generated before any set-up."""

    warm: list
    fresh: list[list]
    generate_ms: float
    generated: int


def generate_sources(seed: int) -> Sources:
    """Distinct adversarial-rotation sources: a warm pool, then one list of
    never-sent sources per client."""
    wanted = WARM_POOL + CLIENTS * FRESH_PER_CLIENT
    t = time.perf_counter()
    count = wanted * 2  # nearly half of a long generated run repeats a source
    while True:
        unique, seen = [], set()
        for entry in corpus_entries(seed, count):
            if entry.source_digest not in seen:
                seen.add(entry.source_digest)
                unique.append(entry)
        if len(unique) >= wanted:
            break
        count *= 2
    generate_ms = (time.perf_counter() - t) * 1000.0 / count
    return Sources(unique[:WARM_POOL],
                   [unique[WARM_POOL + i:wanted:CLIENTS] for i in range(CLIENTS)],
                   generate_ms, count)


def fresh_inputs(pool: list):
    """Endless (source, data seed) pairs, none repeated: the whole *pool*
    at data seed 0, then at seed 1, and so on."""
    for data_seed in itertools.count():
        for entry in pool:
            yield entry, data_seed


@dataclass
class Setup:
    daemon: Daemon
    sources: Sources
    kernel_digests: dict[str, str]
    #: ``perf_counter`` at the start and the end of set-up
    interval: tuple[float, float]
    health_polls: int


def prepare(root: Path, workdir: Path, sources: Sources) -> Setup:
    """Start a daemon and warm it up: the timed part of set-up."""
    t0 = time.perf_counter()
    daemon = Daemon(root, workdir)
    try:
        health_polls = daemon.wait_healthy()
        client = daemon.client
        jobs = [client.submit_benchmark(name) for name in KERNELS]
        jobs += [client.submit_source(e.source, e.entry, e.arg_specs)
                 for e in sources.warm]
        digests = {}
        for job in jobs:
            record, _ = wait_job(client, job["id"])
            if record["state"] != "done":
                raise RuntimeError(f"warm-up job {job['id']} ended {record['state']}")
            if record["kind"] == "bench":
                digests[record["result"]["name"]] = record["result"]["profile_digest"]
    except BaseException:
        daemon.stop()
        raise
    return Setup(daemon, sources, digests, (t0, time.perf_counter()), health_polls)


class ClosedLoop:
    """The 2-client closed loop; in a traced run each job's submit and wait
    are spans of *tracer*."""

    def __init__(self, setup: Setup, seed: int, tracer: Tracer | None) -> None:
        self.setup = setup
        self.seed = seed
        self.tracer = tracer
        self.jobs: list[Job] = []
        self._lock = threading.Lock()

    def _span(self, name: str, pid: str):
        return self.tracer.span(name, program=pid) if self.tracer else nullcontext()

    def _client(self, index: int, deadline: float) -> None:
        from repro.service.client import ServiceClient, ServiceError

        rng = random.Random(f"{self.seed}:client:{index}")
        # a refused (429) submission fails rather than being retried
        client = ServiceClient(self.setup.daemon.url, timeout=JOB_TIMEOUT_S,
                               client_id=f"perfbench-{index}", retry_limit=0)
        fresh = fresh_inputs(self.setup.sources.fresh[index])
        kinds = rounds(rng, MIX_BLOCK)
        kernels = rounds(rng, KERNELS)
        warm = rounds(rng, self.setup.sources.warm)
        n = 0
        while time.perf_counter() < deadline:
            n += 1
            kind = next(kinds)
            entry, data_seed = None, 0
            if kind == "bench":
                key = next(kernels)
            else:
                entry, data_seed = (next(warm), 0) if kind == "repeat" else next(fresh)
                key = entry.source_digest
            job = Job(index, kind, key, f"c{index}-{n}", time.time(), time.perf_counter(),
                      data_seed=data_seed)
            try:
                with self._span("service.job", job.pid):
                    with self._span("service.submit", job.pid):
                        if entry is None:
                            queued = client.submit_benchmark(key)
                        else:
                            queued = client.submit_source(entry.source, entry.entry,
                                                          entry.arg_specs, seed=data_seed)
                    with self._span("service.wait", job.pid):
                        job.record, job.polls = wait_job(client, queued["id"])
            except (ServiceError, OSError, TimeoutError) as exc:
                job.error = f"{type(exc).__name__}: {exc}"
            job.seen_t = time.perf_counter()
            with self._lock:
                self.jobs.append(job)

    def run(self, seconds: float, daemon_cpu) -> list[list[float]]:
        """Drive the loop for *seconds*, cut into :data:`WINDOWS` windows;
        returns [start, end, daemon CPU s, jobs completed] of each window."""
        t0 = time.perf_counter()
        deadline = t0 + seconds
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                self._client(index, deadline)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        marks = [(t0, daemon_cpu(), 0)]
        for thread in threads:
            thread.start()
        for k in range(1, WINDOWS + 1):
            time.sleep(max(0.0, t0 + seconds * k / WINDOWS - time.perf_counter()))
            with self._lock:
                completed = len(self.jobs)
            marks.append((time.perf_counter(), daemon_cpu(), completed))
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [[a[0], b[0], b[1] - a[1], b[2] - a[2]] for a, b in zip(marks, marks[1:])]


def _latency_ms(job: Job) -> float:
    """Submit (client clock) to the daemon recording the verdict."""
    return (job.record["finished_at"] - job.submit_wall) * 1000.0


class Verifier:
    """Checks every job's verdict against the known answer.

    A bench job must carry its kernel's ``expected_label`` and the profile
    digest of the warm-up pass.  A source job's analysis document, apart
    from its trace, must equal the document of the same program and input
    data analysed in this process, so its verdict is that program's
    in-process verdict.
    ``accurate`` counts verdicts equal to the ground truth.
    """

    def __init__(self, setup: Setup) -> None:
        from repro.bench_programs.registry import get_benchmark

        self.setup = setup
        self.expected = {name: get_benchmark(name).expected_label for name in KERNELS}
        self.entries = {e.source_digest: e for e in setup.sources.warm}
        for pool in setup.sources.fresh:
            self.entries.update((e.source_digest, e) for e in pool)
        self._reference: dict[tuple[str, int], tuple[dict, dict[str, bool]]] = {}

    def reference(self, key: str, data_seed: int) -> tuple[dict, dict[str, bool]]:
        """(analysis document without trace, verdict) of one program, analysed
        here as ``corpus.score.analyze_entry`` does, with the job's data seed."""
        from repro.corpus.score import predicted_patterns
        from repro.lang.parser import parse_program
        from repro.lang.validate import validate_program
        from repro.patterns.engine import analyze
        from repro.patterns.schema import analysis_to_dict
        from repro.service.jobs import build_call_args

        if (key, data_seed) not in self._reference:
            entry = self.entries[key]
            program = parse_program(entry.source)
            validate_program(program)
            args = build_call_args(entry.arg_specs, seed=data_seed)
            result = analyze(program, entry.entry, [args])
            doc = json.loads(json.dumps(analysis_to_dict(result)))
            doc.pop("trace")
            self._reference[key, data_seed] = (doc, predicted_patterns(result))
        return self._reference[key, data_seed]

    def check(self, job: Job, out: Outcome) -> None:
        out.attempted += 1
        where = f"client {job.client} {job.kind} job"
        if job.error:
            out.fail(f"{where}: {job.error}")
            return
        record = job.record
        if record["state"] != "done":
            out.fail(f"{where} {record['id']}: ended {record['state']}: {record.get('error')}")
            return
        result = record["result"]
        if job.kind == "bench":
            if result["label"] != self.expected[job.key]:
                out.fail(f"{where} {record['id']}: label {result['label']!r}")
            elif result["profile_digest"] != self.setup.kernel_digests[job.key]:
                out.fail(f"{where} {record['id']}: profile digest differs from warm-up")
            else:
                out.accurate += 1
            return
        doc, verdict = self.reference(job.key, job.data_seed)
        if {k: v for k, v in result.items() if k != "trace"} != doc:
            out.fail(f"{where} {record['id']}: analysis differs from in-process analysis")
        elif all(verdict[d] == bool(t) for d, t in self.entries[job.key].truth.items()):
            out.accurate += 1


def _service_layers(loop: ClosedLoop, tracer: Tracer, before: dict,
                    after: dict) -> list[Metric]:
    """Service and cache metrics of the timed jobs; queue wait and run time
    come from each job record's timestamps."""
    ok = [j for j in loop.jobs if not j.error]
    for job in ok:
        rec = job.record
        started = rec["started_at"] or rec["submitted_at"]
        tracer.record("service.queue_wait", max(0.0, started - rec["submitted_at"]),
                      program=job.pid)
        tracer.record("service.run", rec["finished_at"] - started, program=job.pid)
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    finished = tracer.finished()

    def med(name: str) -> Metric:
        values = spans.per_program_ms(finished, name)
        return Metric(f"{name}_ms", median(values), "ms", len(values))

    return [
        med("service.submit"),
        med("service.queue_wait"),
        med("service.run"),
        Metric("service.polls_per_job", sum(j.polls for j in ok) / len(ok), "count", len(ok)),
        Metric("service.coalesced_ratio",
               sum(1 for j in ok if j.record["coalesced_with"] is not None) / len(ok),
               "ratio", len(ok)),
        Metric("cache.hit_ratio", hits / lookups if lookups else 0.0, "ratio", lookups),
    ]


def _replay_layers(setup: Setup, tracer: Tracer, out: Outcome) -> list[Metric]:
    """Layer times and counts of this workload's fixed programs (the kernels
    and the warm pool), each analysed here untraced, then step by step with
    spans, then untraced again; the traced outcome must equal the untraced
    one.  The tracing overhead compares the traced time with the second
    untraced time."""
    from repro.corpus.score import analyze_entry, predicted_patterns
    from repro.runtime.parallel import analyze_one

    counts = LayerCounts()
    untraced_ms: dict[str, float] = {}
    programs = [(f"{name}#replay", analyze_one, traced_registry, name)
                for name in KERNELS]
    programs += [(f"{e.name}#replay", lambda e: predicted_patterns(analyze_entry(e)),
                  traced_corpus, e) for e in setup.sources.warm]
    for pid, untraced, traced, program in programs:
        out.attempted += 1
        try:
            # the first, untimed call warms this process up for the program;
            # the traced and the timed untraced call then start alike
            reference = untraced(program)
            gc.collect()
            outcome = traced(tracer, pid, program, counts)
            gc.collect()
            t = time.perf_counter()
            untraced(program)
            untraced_ms[pid] = (time.perf_counter() - t) * 1000.0
        except Exception as exc:
            out.fail(f"{pid}: {type(exc).__name__}: {exc}")
            continue
        if outcome != reference:
            out.fail(f"{pid}: traced outcome differs from the untraced one")
    return layer_metrics(tracer, counts) + [overhead_metric(tracer, untraced_ms)]


def run_workload(root: Path, workdir: Path, seed: int, seconds: float, trace: bool,
                 setup_runs: int, spans_path: Path | None = None) -> dict:
    """Set up *setup_runs* times (the last set-up is kept), run the closed
    loop, verify every job.  Returns the fields ``run.py`` reports; set-ups
    are (start, end) ``perf_counter`` intervals."""
    phases = {"start": time.perf_counter()}
    sources = generate_sources(seed)
    phases["generate"] = time.perf_counter()
    setup_times = []
    for i in range(setup_runs - 1):
        setup = prepare(root, workdir / f"setup{i}", sources)
        setup.daemon.stop()
        setup_times.append(setup.interval)
    setup = prepare(root, workdir / "run", sources)
    setup_times.append(setup.interval)
    phases["setups"] = time.perf_counter()
    tracer = Tracer() if trace else None
    loop = ClosedLoop(setup, seed, tracer)
    daemon = setup.daemon
    try:
        before = daemon.client.stats()["cache"]
        windows = loop.run(seconds, lambda: procstat.cpu_seconds(daemon.proc.pid))
        peak_rss = procstat.peak_rss_mb(daemon.proc.pid)
        after = daemon.client.stats()["cache"]
        phases["loop"] = time.perf_counter()
    finally:
        daemon.stop()
    shutil.rmtree(workdir, ignore_errors=True)
    phases["stop"] = time.perf_counter()

    out = Outcome(rounds=windows, peak_rss_mb=peak_rss)
    verifier = Verifier(setup)
    for job in loop.jobs:
        verifier.check(job, out)
    done = [j for j in loop.jobs if not j.error and j.record["state"] == "done"]
    out.latencies_ms = [_latency_ms(j) for j in done]
    out.timed = [[j.submit_t, j.seen_t] for j in done]
    kinds = {k: sum(1 for j in loop.jobs if j.kind == k) for k in sorted(set(MIX_BLOCK))}
    phases["verify"] = time.perf_counter()
    if tracer is not None:
        metrics = _service_layers(loop, tracer, before, after)
        metrics += _replay_layers(setup, tracer, out)
        metrics.append(Metric("corpus.generate_ms", sources.generate_ms, "ms",
                              sources.generated))
        out.layers = [asdict(m) for m in metrics]
        if spans_path is not None:
            spans.dump(tracer.finished(), spans_path)
    return {
        "setups_s": setup_times,
        "outcome": out,
        "notes": {"jobs_by_kind": kinds, "health_polls": setup.health_polls,
                  "max_data_seed": max((j.data_seed for j in loop.jobs), default=0),
                  "polls": sum(j.polls for j in loop.jobs),
                  "phase_s": {k: round(t - prev, 3) for (k, t), prev in
                              zip(list(phases.items())[1:], phases.values())}},
    }
