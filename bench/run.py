"""The taulike benchmark: one workload per invocation, in-process.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run draws its inputs from ``--seed`` (see workloads.py), checks every output
of a discarded warm-up pass against computations made apart from the program
(see checks.py), then repeats whole passes over the workload's jobs until
``--seconds`` have gone by.  Each pass runs every job at size n and at 2n,
alternating which size goes first; ``gc.collect()`` runs before each job and
every later output must equal the checked one.

Job times are corrected for host speed.  The shared hosts this benchmark runs on
change speed by up to 2x within a minute, in phases of seconds, so before
every job the run times a fixed slice of interpreter work
(:func:`reference_work`), and each pass's job times are scaled by
``REFERENCE_S / median(reference times of the pass)``: they read as seconds
on a host that runs the reference slice in ``REFERENCE_S``.  The uncorrected
figures are printed on the lines before the result.

``setup_s`` is corrected the same way by a fresh process that only imports
numpy (:func:`setup_time`).

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each a
median over passes except ``setup_s`` (median over fresh set-up processes)
and ``peak_rss_mb``.  With ``--trace 1`` the passes run under tracing.py and
the last line holds the per-layer metrics, per pass.  Spans are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 7
REFERENCE_S = 0.0027  # reference_work() at the usual speed of a 2-core x86-64 host, Python 3.11
IMPORT_REFERENCE_S = 0.2  # a fresh `python3 -c "import numpy"` on the same host, launch to exit
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "growth_2n": "ratio",
    "peak_rss_mb": "MB",
}


def log(text: str) -> None:
    print(text, flush=True)


_PAIRS = [((i * 7919) % 211, (i * 104729) % 223) for i in range(4000)]
_PROBES = [((i * 31) % 211, (i * 17) % 223) for i in range(4000)]


def reference_work() -> int:
    """A fixed slice of the kinds of work the program does.

    Two halves, because the host's slow phases hit them unequally: integer
    and dict work on a small working set, and building, probing and sorting
    a set of pairs.  Correcting by both tracks the jobs better than either.
    """
    counts: dict[int, int] = {}
    keys = []
    total = 0
    for i in range(2000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            total += k
        keys.append(k)
    keys.sort()
    pairs = set(_PAIRS)
    total += sum(1 for p in _PROBES if p in pairs)
    return total + len(sorted(pairs))


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return level, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Row(NamedTuple):
    job: object
    out: object
    seconds: float  # wall time of the job
    reference: float  # wall time of reference_work() just before it


def pass_scale(rows: list[Row]) -> float:
    """Factor that turns this pass's wall times into reference-speed seconds."""
    return REFERENCE_S / statistics.median(r.reference for r in rows)


class Runner:
    def __init__(self, pairs):
        self.pairs = pairs
        self.reference: dict[int, object] = {}  # job id -> checked output
        self.elements: dict[int, int] = {}
        self.failed: dict[int, bool] = {}
        self.errors: list[str] = []
        self.tracer = None

    @property
    def jobs(self) -> list:
        return [job for pair in self.pairs for job in (pair.n, pair.n2)]

    def run_pass(self, flip: bool) -> list[Row]:
        rows = []
        for pair in self.pairs:
            for job in (pair.n2, pair.n) if flip else (pair.n, pair.n2):
                if self.tracer is not None:
                    self.tracer.job = f"{job.label} @{job.size}"
                gc.collect()
                ref = reference_time()
                t0 = time.perf_counter()
                try:
                    out = job.call()
                except Exception as exc:  # an escaped exception is a failed operation
                    out = {"crash": f"{type(exc).__name__}: {exc}"}
                rows.append(Row(job, out, time.perf_counter() - t0, ref))
        return rows

    def check_job(self, job, out) -> None:
        from checks import WrongOutput
        from workloads import OperationFailed

        key = id(job)
        self.elements[key], self.failed[key] = 0, False
        try:
            self.elements[key] = job.check(out)
        except OperationFailed as exc:
            self.failed[key] = True
            log(f"failed: {job.label} @{job.size}: {exc}")
        except (WrongOutput, KeyError, IndexError, TypeError, ValueError) as exc:
            self.errors.append(f"{job.label} @{job.size}: {type(exc).__name__}: {exc}")

    def warm_up(self) -> None:
        """Run one pass, check every output, keep them as the reference."""
        from checks import WrongOutput
        from workloads import OperationFailed

        for row in self.run_pass(False):
            self.reference[id(row.job)] = row.out
            self.check_job(row.job, row.out)
        for pair in self.pairs:
            if pair.check is None or self.failed[id(pair.n)] or self.failed[id(pair.n2)]:
                continue
            try:
                pair.check(self.reference[id(pair.n)], self.reference[id(pair.n2)])
            except (WrongOutput, OperationFailed, KeyError, IndexError, TypeError, ValueError) as exc:
                self.errors.append(f"{pair.n.label} n vs 2n: {type(exc).__name__}: {exc}")

    def timed_pass(self, flip: bool) -> list[Row]:
        rows = self.run_pass(flip)
        for row in rows:
            if row.out != self.reference[id(row.job)]:
                self.errors.append(f"{row.job.label} @{row.job.size}: output differs from the warm-up pass")
                self.check_job(row.job, row.out)
        return rows


def pass_figures(runner: Runner, rows: list[Row], scale: float) -> dict[str, float]:
    times = [r.seconds * scale for r in rows]
    by_size = {"n": 0.0, "2n": 0.0}
    for r, t in zip(rows, times):
        by_size[r.job.size] += t
    return {
        "elements_per_s": sum(runner.elements[id(r.job)] for r in rows) / sum(times),
        "job_s_p50": statistics.median(times),
        "growth_2n": by_size["2n"] / by_size["n"],
    }


def end_to_end(runner: Runner, passes: list[list[Row]], setup_s: float) -> dict[str, float]:
    figures = {}
    for label, scaled in (("uncorrected", False), ("corrected", True)):
        per_pass = [pass_figures(runner, rows, pass_scale(rows) if scaled else 1.0) for rows in passes]
        samples = [r.seconds * (pass_scale(rows) if scaled else 1.0) for rows in passes for r in rows]
        level, tail = tail_percentile(samples)
        figures[label] = {
            **{k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]},
            "job_s_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    speed = [1 / pass_scale(rows) for rows in passes]
    log(f"job_s_tail is p{level:g} of {len(samples)} job samples over {len(passes)} passes")
    log(f"host speed (reference time / {REFERENCE_S} s) per pass: median {statistics.median(speed):.3f}, "
        f"range {min(speed):.3f}-{max(speed):.3f}")
    log("uncorrected: " + json.dumps(figures["uncorrected"]))
    return {k: setup_s if k == "setup_s" else figures["corrected"][k] for k in END_TO_END_UNITS}


def per_layer(runner: Runner, seconds: float, outdir: Path, name: str) -> tuple[dict[str, float], int]:
    from tracing import PER_LAYER, Tracer

    untraced = statistics.median(
        sum(r.seconds for r in rows) * pass_scale(rows) for rows in (runner.run_pass(False) for _ in range(2)))
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    deltas, passes = [], []
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            before = tracer.snapshot()
            rows = runner.timed_pass(False)
            after = tracer.snapshot()
            passes.append(rows)
            deltas.append({k: after.get(k, 0) - before.get(k, 0) for k, _ in PER_LAYER})
    finally:
        tracer.uninstall()
        runner.tracer = None
    scales = [pass_scale(rows) for rows in passes]
    traced = statistics.median(sum(r.seconds for r in rows) * s for rows, s in zip(passes, scales))
    log(f"traced passes: {len(passes)}; corrected pass time traced {traced:.4f} s, "
        f"untraced {untraced:.4f} s, overhead x{traced / untraced:.2f}")
    counts = [k for k, unit in PER_LAYER if unit == "count"]
    if any({k: d[k] for k in counts} != {k: deltas[0][k] for k in counts} for d in deltas):
        runner.errors.append("per-layer counts differ between traced passes")
    metrics = {}
    for key, unit in PER_LAYER:
        if key == "cli.payload_bytes":
            metrics[key] = sum(len(r.out[1].encode()) for r in passes[0] if isinstance(r.out, tuple))
        elif unit == "s":
            metrics[key] = statistics.mean(d[key] * s for d, s in zip(deltas, scales))
        else:
            metrics[key] = int(deltas[0][key])
    trace_file = outdir / f"trace-{name}.jsonl"
    with trace_file.open("w") as fh:
        for job, prefix, t0, t1, parent in tracer.spans:
            fh.write(json.dumps({"job": job, "name": prefix, "start": t0, "end": t1, "parent": parent}) + "\n")
    log(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return metrics, len(passes)


def spawn_time(argv: list[str], until_ready: bool) -> float:
    """Wall time from launching ``argv`` to its "ready" line, or to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline() if until_ready else ""
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    done = time.perf_counter()
    if code != 0 or (until_ready and line.strip() != "ready"):
        raise SystemExit(f"set-up process {argv[1:]} failed (exit {code})")
    return (ready if until_ready else done) - t0


def setup_time(args) -> float:
    """Median over fresh processes of launch -> first job ready, host-corrected.

    Each set-up process follows a reference process that only imports numpy.
    Start-up time tracks process and import speed, which the in-process
    reference slice does not, so each set-up time is scaled by
    ``IMPORT_REFERENCE_S / (that reference process's time)``.
    """
    wall, corrected = [], []
    for _ in range(SETUP_PROCESSES):
        ref = spawn_time([sys.executable, "-c", "import numpy"], until_ready=False)
        t = spawn_time([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)], until_ready=True)
        wall.append(t)
        corrected.append(t * IMPORT_REFERENCE_S / ref)
    log(f"setup_s uncorrected median {statistics.median(wall):.4f} s over {SETUP_PROCESSES} processes")
    return statistics.median(corrected)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "taulike" / "__init__.py").is_file():
        print(f"no taulike sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    outdir = BENCH / "out" / f"{args.workload}-{args.seed}"

    if args.setup_probe:
        import taulike.cli  # noqa: F401  (the import is part of set-up)

        workloads.build(args.workload, args.seed, outdir)
        print("ready", flush=True)
        return 0

    setup_s = setup_time(args) if args.trace == 0 else 0.0
    runner = Runner(workloads.build(args.workload, args.seed, outdir))
    runner.warm_up()
    if args.trace:
        from tracing import PER_LAYER

        metrics, n_passes = per_layer(runner, args.seconds, outdir, f"s{args.seed}")
        units = dict(PER_LAYER)
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(runner.timed_pass(flip=len(passes) % 2 == 1))
        metrics = end_to_end(runner, passes, setup_s)
        units = END_TO_END_UNITS
        n_passes = len(passes)

    for err in runner.errors[:20]:
        log(f"WRONG: {err}")
    for key, value in metrics.items():
        log(f"{args.workload} {key} = {value} {units[key]}")
    result = {
        "correct": not runner.errors,
        "attempted": len(runner.jobs) * n_passes,
        "failed": sum(runner.failed[id(job)] for job in runner.jobs) * n_passes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
