"""symalg benchmark.

    python3 bench/run.py --workload orbit-31 --seed 1 --seconds 30 --trace 0

It runs the CLI of the source tree it sits in (`src/` next to `bench/`).

With `--trace 0` it runs the workload's `symalg` CLI command in a closed
loop with one client: each process starts only after the previous one has
exited, for about `--seconds` (at least one process).  Every process gets
a fresh cache directory, so cold runs stay cold.  Every report is checked
against the reference.  It prints the end-to-end metrics: medians over
the processes of wall time, CPU time (user + sys) and peak RSS, and the
set-up time: the median of the run's fresh imports of symalg (a batch
before the first measured process and one after each) plus, for freegens-31-warm, the median
of its cold model-cache primings.

With `--trace 1` it runs one untraced CLI process of the workload and then
the three pipelines once each in-process, with spans around each layer
(see tracing.py).  It prints the per-layer metrics, each under the name of
the workload whose pipeline produced it, and writes the spans to
`.bench_work/spans-<workload>-seed<seed>.jsonl`.

`--workload all` runs every workload in turn.  The last line of stdout is
the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # every run must end within 180 s
# One batch of samples comes before the first measured process and one
# after each: BATCH fresh interpreters importing symalg (for setup_s) and
# BATCH running probe.py, alternately.  The machine's speed changes over
# seconds, so batches spread over the run average over its fast and slow
# phases, and the probes on either side of a process say how fast the
# machine ran while it did.
BATCH = 6
PRIME_REPEATS = 2  # cold model-cache primings for freegens-31-warm
# About the median time of probe.py on the machine of the baseline in
# README.md (0.11-0.14 s there).  Every end-to-end time is scaled by
# PROBE_REF_S / (the probes' median), so that it reads as seconds on that
# machine at a fixed speed.
PROBE_REF_S = 0.13

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


class Process:
    """One finished child process: wall, CPU and memory from wait4."""

    def __init__(self, args, out_path, limit_s):
        env = dict(os.environ)
        env.pop("SYMALG_CACHE_DIR", None)  # every CLI call gets --cache-dir
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        err_path = Path(str(out_path) + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(limit_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.stderr = err_path.read_text(errors="replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
        self.stdout = Path(out_path).read_text()
        self.failure = None  # why the report was wrong, if it was


class Run:
    """One benchmark run of one workload, in its own scratch directory."""

    def __init__(self, name, seed, seconds, small, traced):
        self.name = name
        self.traced = traced
        self.seed = seed
        self.seconds = seconds
        self.small = small
        self.started = time.perf_counter()
        self.tmp = WORK / f"run-{os.getpid()}-{name}"
        self.count = 0
        self.processes = []  # measured CLI processes
        self.failures = []  # one line per failed process or traced run
        self.drawn = []
        self.imports = []  # wall seconds of each fresh import of symalg
        self.probes = []  # one list per batch: wall seconds of each probe
        self.primings = []  # wall seconds of each cold model-cache priming
        self.stream = wl.presentations(seed)
        self.version = None
        self.raw = None  # unscaled end-to-end values

    def remaining_s(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, args):
        self.count += 1
        limit = self.remaining_s()
        if limit <= 0:
            raise BenchError("out of time")
        return Process(args, self.tmp / f"out-{self.count}.txt", limit)

    def cli(self, cache_dir, args):
        return self.spawn([sys.executable, "-m", "symalg.cli",
                           "--cache-dir", str(cache_dir)] + args)

    # -- set-up

    def sample_batch(self):
        """Time BATCH fresh imports of symalg and BATCH probes, alternately."""
        probes = []
        for _ in range(BATCH):
            p = self.spawn([sys.executable, "-c",
                            "import symalg; print(symalg.__version__)"])
            if p.returncode != 0:
                raise BenchError(f"cannot import symalg: {p.stderr.strip()[-300:]}")
            self.imports.append(p.wall_s)
            self.version = p.stdout.strip()
            p = self.spawn([sys.executable, str(BENCH / "probe.py")])
            if p.returncode != 0:
                raise BenchError(f"probe failed: {p.stderr.strip()[-300:]}")
            probes.append(p.wall_s)
        self.probes.append(probes)

    def setup(self):
        """Import symalg in fresh interpreters and, where the model cache is
        needed, prime it cold.  The traced run needs the cache whatever the
        workload (it runs all three pipelines) but reports no set-up time,
        so it primes once."""
        self.sample_batch()
        repeats = 1 if self.traced else PRIME_REPEATS if self.name == wl.FREEGENS else 0
        for i in range(repeats):
            primed = self.tmp / f"prime-{i}"
            primed.mkdir()
            p = self.cli(primed, wl.prime_args(self.small))
            if p.returncode != 0:
                raise BenchError(f"priming failed: {p.stderr.strip()[-300:]}")
            self.primings.append(p.wall_s)
        if repeats:
            primed.rename(self.tmp / "primed")

    def setup_s(self):
        """Median import time plus, for freegens-31-warm, the median
        priming time; raw seconds."""
        primed = statistics.median(self.primings) if self.primings else 0.0
        return statistics.median(self.imports) + primed

    def scale(self, k=None):
        """PROBE_REF_S over the median probe time: of the batches on either
        side of measured process k, or of the whole run."""
        batches = self.probes if k is None else self.probes[k:k + 2]
        return PROBE_REF_S / statistics.median(t for b in batches for t in b)

    # -- one measured CLI process

    def measure_once(self):
        k = len(self.processes)
        cache = self.tmp / f"cache-{k}"
        cache.mkdir()
        models = self.tmp / "primed" / "models"
        if self.name == wl.FREEGENS and models.is_dir():
            shutil.copytree(models, cache / "models")
        doc = pres = None
        if self.name == wl.RESOLUTION:
            doc = next(self.stream)
            self.drawn.append([int(m[0][0]) for m in doc["gamma"]])
            pres = self.tmp / f"presentation-{k}.json"
            pres.write_text(json.dumps(doc))
        p = self.cli(cache, wl.cli_args(self.name, self.small, pres))
        shutil.rmtree(cache)
        if p.returncode != 0:
            why = f"exit code {p.returncode}: {p.stderr.strip()[-300:]}"
        else:
            why = wl.check_report(p.stdout, wl.reference(self.name, self.small, doc))
        self.processes.append(p)
        if why:
            p.failure = why
            self.failures.append(why)
            print(f"{self.name}: run {k} failed: {why}", file=sys.stderr)
        return p

    def measure(self):
        """Closed loop for --seconds: at least one process, then another
        only while the last one's duration still fits, so that a run's
        length stays near --seconds whatever the process takes.  A batch
        of samples follows each process."""
        start = time.perf_counter()
        while True:
            last = self.measure_once().wall_s
            self.sample_batch()
            if (time.perf_counter() - start + last > self.seconds
                    or self.remaining_s() <= 1.5 * last + 5):
                break

    # -- the two kinds of run

    def execute(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        try:
            self.setup()
            if not self.traced:
                self.measure()
                return self.end_to_end()
            return self.per_layer()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def end_to_end(self):
        # a failed process's timings say nothing; they count in `failed`
        good = [k for k, p in enumerate(self.processes) if not p.failure]
        good = good or range(len(self.processes))
        procs = [self.processes[k] for k in good]
        raw = {
            "wall_s": statistics.median(p.wall_s for p in procs),
            "cpu_s": statistics.median(p.cpu_s for p in procs),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs),
            "setup_s": self.setup_s(),
        }
        values = {
            "wall_s": statistics.median(self.processes[k].wall_s * self.scale(k)
                                        for k in good),
            "cpu_s": statistics.median(self.processes[k].cpu_s * self.scale(k)
                                       for k in good),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": raw["setup_s"] * self.scale(),
        }
        attempted = len(self.processes)
        failed = len(self.failures)
        print(f"{self.name}: {attempted} CLI runs (closed loop, 1 client), "
              f"{failed} failed, seed {self.seed}; times scaled by the probe "
              f"(run median {PROBE_REF_S / self.scale():.4f} s, "
              f"reference {PROBE_REF_S} s)")
        print(f"  {'metric':<12} {'scaled':>12} {'raw':>12} unit")
        for metric, value in values.items():
            base = (f"median of {len(self.imports)} imports"
                    + (f" + median of {len(self.primings)} primings"
                       if self.primings else "")
                    if metric == "setup_s" else f"median of {len(procs)} runs")
            print(f"  {metric:<12} {value:12.4f} {raw[metric]:12.4f} "
                  f"{END_TO_END[metric]:<6} {base}")
        print(f"  {'error_rate':<12} {failed / attempted:12.4f} {'':12} {'ratio':<6} "
              f"{failed} of {attempted} runs")
        self.raw = raw
        return self.result(values, END_TO_END, attempted, failed)

    def per_layer(self):
        from tracing import PER_LAYER, traced_run

        sys.path.insert(0, str(ROOT / "src"))
        untraced = self.measure_once()
        spans = WORK / f"spans-{self.name}-seed{self.seed}.jsonl"
        failures, values = traced_run(self.name, self.small, self.tmp, self.seed,
                                      untraced.wall_s, spans)
        self.failures += failures
        # the untraced process and the traced in-process run, one each
        attempted = len(self.processes) + 1
        failed = sum(1 for p in self.processes if p.failure) + bool(failures)
        print(f"{self.name}: traced in-process run, seed {self.seed}, "
              f"spans in {spans.relative_to(ROOT)}")
        for metric, value in values.items():
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
            print(f"  {metric:<42} {shown} {PER_LAYER[metric]}")
        return self.result(values, PER_LAYER, attempted, failed)

    def result(self, values, units, attempted, failed):
        info = {
            "workload": self.name,
            "seed": self.seed,
            "small": self.small,
            "drawn_G": self.drawn,
            "runs": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                      "peak_rss_mb": p.peak_rss_mb} for p in self.processes],
            "imports_s": self.imports,
            "probes_s": self.probes,
            "raw": self.raw,
            "primings_s": self.primings,
            "failures": self.failures,
            "environment": environment(self.version),
        }
        print("info " + json.dumps(info, sort_keys=True))
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        }


def git_commit():
    """HEAD of the source tree if it is a git checkout, read from .git."""
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


def cpu_model():
    """The CPU model name, from /proc/cpuinfo where there is one."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(version):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "symalg": version,
        "commit": git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes, for the smoke check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symalg" / "__init__.py").is_file():
        print(f"no symalg source under {ROOT / 'src'}; run from the root of "
              "a source tree", file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = Run(name, args.seed, args.seconds, args.small, bool(args.trace))
            results[name] = run.execute()
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
