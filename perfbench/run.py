"""Certified-answer latency of the rigidpack CLI.

    python3 perfbench/run.py --workload union-produce --seed 1 --seconds 20 --trace 0

One client drives ``rigidpack.cli.main(argv)`` in-process in a closed loop:
each request starts after the previous one returns, and its time runs from
call to return (parse, compute, certificate build with its self-check,
write).  A warm-up pass runs every request of the pool once, untimed, and
checks it: the exit code, ``verify_certificate`` on the certificate, and
the ``cert_hash`` that later runs of the same request must repeat.  The
timed loop then cycles through the pool in a fresh seeded order per pass
until ``--seconds`` have passed.

Times are reported in seconds at a reference machine speed: a fixed piece
of pure-Python work is timed every quarter second and each stretch of
requests is scaled by how fast the machine ran it (see ``Speedometer``).
The unscaled wall-clock figures are printed on the lines before the result.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the pool runs in whole passes
under the layer tracer (see tracing.py) and the object holds per-layer
metrics.  Everything the run writes goes to a temporary directory in the
checkout, removed at exit, except the traced run's spans, which are written
to ``.perfbench-trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import inspect
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
EXPECTED_FILE = HERE / f"expected_seed{DEFAULT_SEED}.json"
SETUP_BATCH = 4  # interpreters per batch; batches before and after warm-up and at the end
MIN_SAMPLES = 100  # so that p90 has ten samples above it
REFERENCE_MS = 2.0  # the reference work's time at the reference speed
LAP_S = 0.25  # longest stretch of requests scaled by one pair of readings
TAIL_CAP = 90
# Runs in a fresh interpreter after the source of ``reference_work``; reads
# the speedometer in that process (median of five, by hand: ``statistics``
# would import modules that rigidpack imports too) around the timed part.
SETUP_CODE = (
    "import time\n"
    "def reading():\n"
    "    times = []\n"
    "    for _ in range(5):\n"
    "        start = time.perf_counter()\n"
    "        reference_work()\n"
    "        times.append(time.perf_counter() - start)\n"
    "    return sorted(times)[2] * 1e3\n"
    "before = reading()\n"
    "t = time.perf_counter()\n"
    "import rigidpack.cli\n"
    "rigidpack.cli.build_parser()\n"
    "took = time.perf_counter() - t\n"
    "print(took, before, reading())\n"
)


def load_program():
    """Import the CLI from the checkout's ``src``, or exit without a result."""
    if not (SRC / "rigidpack" / "cli.py").is_file():
        sys.exit(f"perfbench: no rigidpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidpack.certificates
    import rigidpack.cli
    import rigidpack.multigraph
    return rigidpack


@dataclass
class Job:
    """One request of the pool and what the gate expects of it."""

    name: str
    argv: list[str]
    graph: Path
    produces: bool  # writes a certificate with --out
    expect: int | None
    warm_code: int | None = None
    warm_hash: str | None = None
    warm_s: float = 0.0
    problem: str | None = None  # why the warm-up run failed


@dataclass
class Result:
    job: Job
    code: int | None
    seconds: float
    error: str | None
    out: Path | None
    scaled: float = 0.0  # seconds at the reference speed (see Speedometer)


def call(rp, job: Job, out: Path | None) -> Result:
    argv = job.argv + (["--out", str(out)] if out is not None else [])
    start = perf_counter()
    try:
        code = rp.cli.main(argv)
    except Exception as exc:  # a raising request is a failed request
        return Result(job, None, perf_counter() - start, f"raised {exc!r}", out)
    return Result(job, code, perf_counter() - start, None, out)


def read_hash(path: Path) -> str | None:
    try:
        return json.loads(path.read_text(encoding="utf-8")).get("cert_hash")
    except (OSError, ValueError, AttributeError):
        return None


def check(res: Result) -> str | None:
    """Why a request failed, or None.  The warm-up values must be set."""
    job = res.job
    if res.error is not None:
        return res.error
    if res.code in (2, 3):
        return f"exit {res.code}"
    if job.expect is not None and res.code != job.expect:
        return f"exit {res.code}, expected {job.expect}"
    if job.problem is not None:
        return f"warm-up: {job.problem}"
    if res.code != job.warm_code:
        return f"exit {res.code}, warm-up gave {job.warm_code}"
    if job.produces and read_hash(res.out) != job.warm_hash:
        return "cert_hash differs from the warm-up run"
    return None


def warm_up(rp, jobs: list[Job], work: Path) -> None:
    """Run every job once, record its code and hash, verify its certificate."""
    for job in jobs:
        out = work / f"warm-{job.name}.json" if job.produces else None
        res = call(rp, job, out)
        job.warm_code, job.warm_s = res.code, res.seconds
        job.warm_hash = read_hash(out) if job.produces else None
        job.problem = check(res)
        if job.problem is None and job.produces:
            job.problem = certificate_problem(rp, job, out)


def certificate_problem(rp, job: Job, out: Path) -> str | None:
    if job.warm_hash is None:
        return "no certificate with a cert_hash written"
    cert = json.loads(out.read_text(encoding="utf-8"))
    ok, reason = rp.certificates.verify_certificate(cert, rp.multigraph.load_graph(job.graph))
    return None if ok else f"certificate fails verify_certificate: {reason}"


def expected_codes(workload: str, seed: int) -> dict[str, int]:
    if seed != DEFAULT_SEED or not EXPECTED_FILE.is_file():
        return {}
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8")).get(workload, {})


def producer_jobs(requests, work: Path, table: dict[str, int]) -> list[Job]:
    jobs = []
    for req in requests:
        graph = work / f"{req.name}.txt"
        graph.write_text(req.graph_text(), encoding="ascii")
        argv = [str(graph) if a == "{graph}" else a for a in req.argv]
        jobs.append(Job(req.name, argv, graph, True, table.get(req.name, req.expect)))
    return jobs


def _bump(value):
    """``value`` plus one, for integers and the certificates' "p/q" strings."""
    if isinstance(value, int):
        return value + 1
    frac = Fraction(value) + 1
    return f"{frac.numerator}/{frac.denominator}"


def tamper(cert: dict, certificate_hash) -> dict | None:
    """A copy whose payload has one count off by one, re-hashed so that it
    reaches the semantic check; None for payloads without a count."""
    bad = copy.deepcopy(cert)
    p = bad["payload"]
    kind = p["kind"]
    if kind == "decomposition":
        p["rank"] += 1
    elif kind == "packing-failure":
        p["achieved"] += 1
    elif kind == "packing":
        (p["tree_parts"] or p["rigid_parts"]).pop()
    elif kind == "bounded-cover":
        p["bounded_parts"].pop()
    elif kind == "density":
        p["argmax"].pop()
    elif kind == "report" and p["witness"] is not None:
        if p["witness"]["kind"] == "deficiency-edges":
            p["witness"]["edges"].pop()
        else:
            p["lhs"] = _bump(p["lhs"])
    else:
        return None
    bad["cert_hash"] = certificate_hash(bad)
    return bad


def tamper_group(cert: dict) -> str:
    p = cert["payload"]
    witness = p.get("witness") or {}
    return f"{p['kind']}/{witness.get('kind', '')}"


def verify_jobs(rp, requests, work: Path, table: dict[str, int]) -> list[Job]:
    """Produce certificates for the source requests (untimed), then build a
    verify job for each and for tampered copies (see ``tamper``)."""
    sources = producer_jobs(requests, work, {})
    genuine = []
    with quiet():
        for job in sources:
            out = work / f"{job.name}.json"
            res = call(rp, job, out)
            if res.error is not None or res.code not in (0, 1) or read_hash(out) is None:
                raise RuntimeError(f"producing {job.name} failed: {res.error or res.code}")
            genuine.append((job, out, json.loads(out.read_text(encoding="utf-8"))))
    jobs = [Job(f"verify:{j.name}", ["verify", str(out), str(j.graph)], j.graph, False,
                table.get(f"verify:{j.name}", 0)) for j, out, _ in genuine]
    # One tampered copy per payload kind (and witness kind), the first by
    # name, so the mix is the same for every seed.
    tampered: dict[str, tuple] = {}
    for job, _, cert in sorted(genuine, key=lambda item: item[0].name):
        bad = tamper(cert, rp.certificates.certificate_hash)
        if bad is not None:
            tampered.setdefault(tamper_group(cert), (job, bad))
    for group in sorted(tampered):
        job, bad = tampered[group]
        path = work / f"tampered-{job.name}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        name = f"tampered:{job.name}"
        jobs.append(Job(name, ["verify", str(path), str(job.graph)], job.graph, False,
                        table.get(name, 1)))
    return jobs


def build_jobs(rp, workload: str, seed: int, work: Path) -> list[Job]:
    table = expected_codes(workload, seed)
    if workload == "union-produce":
        return producer_jobs(workloads.union_produce(seed), work, table)
    if workload == "scan-check":
        return producer_jobs(workloads.scan_check(seed), work, table)
    return verify_jobs(rp, workloads.verify_sources(seed), work, table)


@contextlib.contextmanager
def quiet():
    """Send the CLI's own output to the null device."""
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def run_passes(rp, jobs: list[Job], seconds: float, min_samples: int, seed: int,
               work: Path, tracer=None):
    """Whole passes over the pool, each in a fresh seeded order, until at
    least ``min_samples`` requests are done and the pass boundary nearest to
    ``seconds`` is reached.  Whole passes keep every request's share of the
    samples the same.

    Every ``LAP_S`` seconds or so the speedometer is read; at the end every
    request gets its ``scaled`` time from its lap's factor.  Returns the results,
    the wall time, the scaled wall time (readings excluded), the number of
    passes and the speedometer."""
    rng = random.Random(f"order/{seed}")
    results: list[Result] = []
    lap_of: list[int] = []  # the lap each result belongs to
    passes = 0
    with quiet():
        start = perf_counter()
        speed = Speedometer()
        while (len(results) < min_samples or passes == 0
               or (perf_counter() - start) * (1 + 0.5 / passes) < seconds):
            order = jobs[:]
            rng.shuffle(order)
            for job in order:
                if tracer is not None:
                    tracer.request = len(results)
                out = work / f"t{len(results)}.json" if job.produces else None
                results.append(call(rp, job, out))
                lap_of.append(len(speed.laps))
                if perf_counter() - speed.start >= LAP_S:
                    speed.lap()
            passes += 1
        if lap_of[-1] == len(speed.laps):
            speed.lap()
        wall = perf_counter() - start
    factors = speed.factors()
    for res, lap in zip(results, lap_of):
        res.scaled = res.seconds * factors[lap]
    scaled_wall = sum(t * f for t, f in zip(speed.laps, factors))
    return results, wall, scaled_wall, passes, speed


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(samples: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all order
    statistics, weighted by a beta density centred on rank ``q * n``.  Unlike
    a single order statistic it does not jump when the quantile falls in a
    gap between two groups of requests of different cost."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile up to 90 with at least ten samples above
    it, and its Harrell-Davis estimate.  The cap keeps the tail the same
    quantity when a faster program fits more samples into a run."""
    n = len(samples)
    best = 50
    for p in range(TAIL_CAP, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
            break
    return best, quantile(samples, best / 100)


def reference_work() -> int:
    """A fixed piece of pure-Python work (dict updates, appends, arithmetic,
    a sort) of the kinds the program does, 1.4-2.8 ms on a 2 GHz core.  It
    makes no container objects, so it never starts the garbage collector,
    whose cost would depend on the program's heap."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(6000):
        key = i % 61
        table[key] = table.get(key, 0) + i
        items.append(key * 8 + (i & 7))
        total += i * i % 7
    items.sort()
    return total + len(table) + items[0]


def reference_ms() -> float:
    """How long ``reference_work`` takes right now: the median of three, in ms."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


class Speedometer:
    """Turns wall times into seconds at the reference speed.

    A shared machine runs the same code 20-70 % faster or slower from one
    second to the next: on a 2-vCPU VM it switched between two speeds at
    which the reference work took about 1.55 and 2.6 ms.  The reference work is
    timed before the first lap and after each one, and a lap's wall time is
    scaled by ``REFERENCE_MS`` over the mean of the two readings around it.
    A program that gets slower still reads slower, while a slow stretch of
    the machine slows the reference work as much and cancels out."""

    def __init__(self) -> None:
        self.readings = [reference_ms()]
        self.laps: list[float] = []  # wall time of each lap, readings excluded
        self.start = perf_counter()

    def lap(self) -> None:
        self.laps.append(perf_counter() - self.start)
        self.readings.append(reference_ms())
        self.start = perf_counter()

    def factors(self) -> list[float]:
        """The scale factor of each lap."""
        return [REFERENCE_MS * 2 / (self.readings[i] + self.readings[i + 1])
                for i in range(len(self.laps))]


def setup_seconds(runs: int) -> list[tuple[float, float]]:
    """Import of rigidpack.cli plus build_parser(), in ``runs`` fresh
    interpreters: (wall seconds, seconds at the reference speed) for each,
    scaled by speedometer readings taken in that interpreter just before
    and after the import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = inspect.getsource(reference_work) + SETUP_CODE
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall, before, after = map(float, proc.stdout.split()[-3:])
        times.append((wall, wall * REFERENCE_MS * 2 / (before + after)))
    return times


def verdict_mix(jobs: list[Job]) -> str:
    counts = Counter(job.warm_code for job in jobs)
    return ", ".join(f"exit {code}: {n}" for code, n in sorted(counts.items(), key=str))


def report(results: list[Result], metrics: dict, notes: list[str]) -> None:
    failures = [(res.job.name, why) for res in results if (why := check(res)) is not None]
    attempted = len(results)
    for line in notes:
        print(line)
    print(f"failed_share {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} of {attempted} requests)")
    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run(args) -> int:
    rp = load_program()
    notes = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}"]
    setup: list[tuple[float, float]] = []
    if not args.trace:
        setup_seconds(1)  # may compile bytecode
        # Batches at three points of the run, so that one slow moment of the
        # machine does not set the median.
        setup += setup_seconds(SETUP_BATCH)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        jobs = build_jobs(rp, args.workload, args.seed, work)
        with quiet():
            warm_up(rp, jobs, work)
        notes.append(f"pool {len(jobs)} requests, verdicts {verdict_mix(jobs)}, "
                     f"warm-up pass {sum(j.warm_s for j in jobs):.2f} s")
        if args.trace:
            run_traced(rp, jobs, args, work, notes)
            return 0
        setup += setup_seconds(SETUP_BATCH)
        results, wall, scaled_wall, passes, speed = run_passes(
            rp, jobs, args.seconds, MIN_SAMPLES, args.seed, work)
        setup += setup_seconds(SETUP_BATCH)
        samples = [res.scaled for res in results]
        pct, tail = tail_percentile(samples)
        raw = [res.seconds for res in results]
        notes.append(f"answer_s: {len(samples)} samples in {passes} passes, {wall:.1f} s, "
                     f"tail is p{pct}; setup_s: median of {len(setup)} interpreters")
        notes.append(f"machine: reference work {min(speed.readings):.3f}.."
                     f"{max(speed.readings):.3f} ms over {len(speed.readings)} readings "
                     f"(median {statistics.median(speed.readings):.3f}, "
                     f"reference speed {REFERENCE_MS} ms)")
        notes.append(f"wall clock, unscaled: answer_s.p50 {quantile(raw, 0.5):.6g} s, "
                     f"answer_s.tail {tail_percentile(raw)[1]:.6g} s, "
                     f"requests_per_s {len(results) / wall:.6g} 1/s, "
                     f"setup_s {statistics.median(w for w, _ in setup):.6g} s")
        metrics = {
            "answer_s.p50": (quantile(samples, 0.5), "s"),
            "answer_s.tail": (tail, "s"),
            "requests_per_s": (len(results) / scaled_wall, "1/s"),
            "setup_s": (statistics.median(t for _, t in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report(results, metrics, notes)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_traced(rp, jobs, args, work: Path, notes: list[str]) -> None:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, _, _, passes, _ = run_passes(rp, jobs, args.seconds, 1, args.seed, work, tracer)
    finally:
        tracer.uninstall()
    if tracer.missing:
        notes.append("not traced (absent): " + ", ".join(tracer.missing))
    untraced = sum(res.job.warm_s for res in results)
    sizes = [res.out.stat().st_size for res in results if res.out is not None and res.out.is_file()]
    metrics = tracing.layer_metrics(tracer, len(results), sizes, untraced)
    notes.append(f"traced {len(results)} requests ({passes} passes), "
                 f"{len(tracer.spans)} spans")
    notes.append(f"split: union.rank_share {metrics['union.rank_share'][0]:.3f}, "
                 f"scan.share {metrics['scan.share'][0]:.3f} "
                 "(enumeration draw + conditions self + multigraph counts)")
    spans_dir = ROOT / ".perfbench-trace"
    spans_dir.mkdir(exist_ok=True)
    tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    report(results, metrics, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
