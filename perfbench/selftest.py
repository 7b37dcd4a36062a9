"""Show that the benchmark's correctness gate fires.

    python3 perfbench/selftest.py

Runs a small pool of cheap requests through run.py's warm-up and checks,
once on the unmodified program and once under each injected fault.  The
faults wrap ``rigidpack.cli.main`` for the duration of a request only, so
the gate's own calls (``verify_certificate``, ``load_graph``) stay
unmodified.  Exits 1 unless the clean run passes and every fault is caught.
"""

from __future__ import annotations

import contextlib
import itertools
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 3


def small_pool(rp, work: Path) -> list[run.Job]:
    """Cheap producer requests, and a genuine and a tampered certificate."""
    producers = [r for r in workloads.union_produce(SEED)
                 if r.n == workloads.UNION_NS[0] and r.name.endswith("-r0")
                 and ("-03-" in r.name or "-11-" in r.name)]
    source = [r for r in producers if r.name.startswith("decompose-11-pass")]
    return run.producer_jobs(producers, work, {}) + run.verify_jobs(rp, source, work, {})


@contextlib.contextmanager
def patched(owner, attr, make):
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def flip_exit(rp, main):
    return lambda argv: {0: 1, 1: 0}.get(main(argv), 2)


def exit_two_on_pack(rp, main):
    return lambda argv: 2 if argv[0] == "pack" else main(argv)


def raise_on_decompose(rp, main):
    def wrapper(argv):
        if argv[0] == "decompose":
            raise RuntimeError("injected fault")
        return main(argv)
    return wrapper


def nondeterministic_payload(rp, main):
    counter = itertools.count()

    def payload(orig):
        return lambda dec: {**orig(dec), "nonce": next(counter)}

    def wrapper(argv):
        with patched(rp.certificates, "decomposition_payload", payload):
            return main(argv)
    return wrapper


def unverifiable_payload(rp, main):
    # The CLI's self-check is switched off too, or it would refuse to emit.
    def payload(orig):
        return lambda dec: {**orig(dec), "rank": orig(dec)["rank"] + 1}

    def wrapper(argv):
        with patched(rp.certificates, "decomposition_payload", payload), \
                patched(rp.certificates, "verify_certificate",
                        lambda orig: lambda *a, **k: (True, None)):
            return main(argv)
    return wrapper


def verify_accepts_all(rp, main):
    def wrapper(argv):
        with patched(rp.certificates, "verify_certificate",
                     lambda orig: lambda *a, **k: (True, None)):
            return main(argv)
    return wrapper


# (fault, applied from the warm-up on or only after it, expected reason)
FAULTS = (
    (flip_exit, True, "expected"),
    (exit_two_on_pack, True, "exit 2"),
    (raise_on_decompose, True, "raised"),
    (nondeterministic_payload, False, "cert_hash differs"),
    (unverifiable_payload, True, "fails verify_certificate"),
    (verify_accepts_all, True, "expected 1"),
)


def gate(rp, fault=None, in_warm_up=True) -> list[str]:
    """Failure reasons of one warm-up plus one checked pass."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        jobs = small_pool(rp, work)
        make = fault or (lambda rp_, main: main)
        with run.quiet():
            with patched(rp.cli, "main", lambda main: make(rp, main)) if in_warm_up \
                    else contextlib.nullcontext():
                run.warm_up(rp, jobs, work)
            with patched(rp.cli, "main", lambda main: make(rp, main)):
                results = [run.call(rp, job, work / f"t{i}.json" if job.produces else None)
                           for i, job in enumerate(jobs)]
        return [f"{res.job.name}: {why}" for res in results if (why := run.check(res))]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    rp = run.load_program()
    ok = True
    clean = gate(rp)
    print(f"clean program: {len(clean)} failed" + "".join(f"\n  {f}" for f in clean))
    ok &= not clean
    for fault, in_warm_up, reason in FAULTS:
        caught = [f for f in gate(rp, fault, in_warm_up) if reason in f]
        print(f"{fault.__name__}: {'caught' if caught else 'MISSED'}"
              + (f" ({caught[0]})" if caught else ""))
        ok &= bool(caught)
    print("gate self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
