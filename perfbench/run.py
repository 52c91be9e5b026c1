#!/usr/bin/env python3
"""End-to-end benchmark of the cactusq compiler pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Set-up imports the package from `src/`, generates the workload's graphs
from the seed, writes them as JSON and runs one small warm-up job; the
part after the imports is repeated and its median added to the import
time to give `setup_s`.  Jobs marked `once` then run a single time.  The
rest of the workload's fixed job list runs in rounds, closed loop, one
`cactusq.cli.main([...])` call after another in this process, for at most
about `--seconds` (see `measure`).  Every output of every round is checked
(see checks.py).  Each job runs between two calls of its workload's
calibration loop (see `calibration`), and its time is also given in
calibration units.  With `--trace 1` untraced and traced rounds alternate;
the per-layer metrics come from the traced ones and the spans are written
to perfbench/work/.

Standard output: one `meta` line, one `row` line per job, and last the
result object {"correct", "attempted", "failed", "metrics"}.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from statistics import median  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

# One BLAS thread, set before numpy loads: jobs run one at a time in one
# thread, and a second BLAS thread would compete with the host's other
# tenants for the few cores there are, which the timings would then measure.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 9
CAL_STEPS = 2000
_CAL_DICT: dict = {}
_CAL_LIST: list = []


def calibrate():
    """Seconds of a fixed pure-Python loop of dict and list work that calls
    no package code.  It reuses one dict and one list, so it creates no
    container objects and the garbage collector cannot run inside it.

    The host's other tenants slow this process by up to ~1.9x, in spells
    of half a second to minutes, and the CPU time of the process slows as
    much as its wall time.  A job's seconds over the mean of the
    calibrations just before and after it is its time in calibration units,
    which such a spell slows about as much as the job and so cancels.
    """
    d, acc = _CAL_DICT, _CAL_LIST
    d.clear()
    acc.clear()
    start = time.perf_counter()
    for i in range(CAL_STEPS):
        d[i & 255] = i * 7 % 13
        acc.append(d[i & 127] + i)
    sum(acc)
    return time.perf_counter() - start


def calibration(workload):
    """The workload's calibration: `calibrate`, or for verify-dense, whose
    time is ~99% dense simulation, the same kind of work as that: a 2x2
    gate applied with tensordot and moveaxis to four axes of a 1 MiB
    complex tensor.  numpy arrays are not tracked by the garbage
    collector, so it cannot run inside this one either."""
    if workload != "verify-dense":
        return calibrate
    import numpy as np

    tensor = (np.arange(1 << 16) % 7 + 0j).reshape((2,) * 8 + (256,))
    gate = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)

    def calibrate_numpy():
        t = tensor
        start = time.perf_counter()
        for k in range(4):
            t = np.moveaxis(np.tensordot(gate, t, axes=([1], [k])), 0, k)
        return time.perf_counter() - start

    return calibrate_numpy


def parse_args(argv):
    p = argparse.ArgumentParser(description="cactusq end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import cactusq
        import cactusq.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cactusq from {SRC}: {exc}")
    if not os.path.abspath(cactusq.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: cactusq was imported from {cactusq.__file__}, not {SRC}")
    return cactusq


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_job(main, argv):
    """One in-process CLI call: (seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # the job failed: record it by name, go on
        error = type(exc).__name__
    return time.perf_counter() - start, out.getvalue(), error


class Bench:
    """Set-up, rounds and output checks of one workload run."""

    def __init__(self, main, workload, seed, run_dir):
        self.main = main
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.calibrate = calibration(workload)

    def _argv(self, job, paths):
        argv = [job.command, "--graph", paths[job.graph.name], *job.extra]
        if "--emit" in job.extra:
            argv += ["--out", self._qasm_path(job)]
        return argv

    def _qasm_path(self, job):
        return os.path.join(self.out_dir, job.name + ".qasm")

    def setup(self, index):
        """Generate and write the inputs, run the warm-up job; seconds."""
        start = time.perf_counter()
        self.out_dir = os.path.join(self.run_dir, f"setup{index}")
        self.jobs = workloads.jobs_for(self.workload, self.seed)
        warm = workloads.warmup_job(self.workload, self.seed)
        paths = workloads.write_inputs(self.jobs + [warm], self.out_dir)
        _, _, error = run_job(self.main, self._argv(warm, paths))
        if error:
            sys.exit(f"perfbench: warm-up job failed: {error}")
        elapsed = time.perf_counter() - start
        self.argvs = [self._argv(j, paths) for j in self.jobs]
        self.adj = [checks.adjacency(j.graph) for j in self.jobs]
        self.once = [i for i, j in enumerate(self.jobs) if j.once]
        self.timed = [i for i, j in enumerate(self.jobs) if not j.once]
        return elapsed

    def round(self, indices, tracer=None):
        """Run the jobs at `indices` once, each between two calibrations,
        then check their outputs before the next round overwrites them:
        {index: (seconds, calibration units, checked)}."""
        for i in indices:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._qasm_path(self.jobs[i]))
        results, units = {}, {}
        for i in indices:
            before = self.calibrate()
            if tracer is None:
                results[i] = run_job(self.main, self.argvs[i])
            else:
                tracer.job += 1
                tracer.enter("cli.main")
                try:
                    results[i] = run_job(self.main, self.argvs[i])
                finally:
                    tracer.exit()
            units[i] = results[i][0] * 2 / (before + self.calibrate())
        return {i: (r[0], units[i], self.check(i, r)) for i, r in results.items()}

    def check(self, i, result):
        """Check one job's outputs: (product numbers, problems, error)."""
        job, adj, (_, stdout, error) = self.jobs[i], self.adj[i], result
        if error:
            return {}, [], error
        qasm = None
        if "--emit" in job.extra:
            try:
                with open(self._qasm_path(job), encoding="utf-8") as fh:
                    qasm = fh.read()
            except OSError as exc:
                return {}, [f"no QASM output: {exc}"], None
        try:
            return (*checks.check(job, stdout, qasm, adj), None)
        except (KeyError, TypeError, ValueError) as exc:
            return {}, [f"malformed report: {type(exc).__name__}: {exc}"], None


def measure(bench, seconds, tracer, package):
    """Rounds within `seconds`: a round starts only if one more of the
    longest so far still ends in time, but at least one runs.  With a
    tracer, untraced and traced rounds alternate, at least one of each."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.install(package)
            try:
                traced.append(bench.round(bench.timed, tracer))
            finally:
                tracer.remove()
            layers.append(tracer.new_round())
        else:
            plain.append(bench.round(bench.timed))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds and (tracer is None or traced):
            return plain, traced, layers


def check_all(bench, rounds):
    """Per job: product of the first round, problems, and the first error.
    A job's product must repeat exactly in every round."""
    n = len(bench.jobs)
    product, problems, errors = [None] * n, [set() for _ in range(n)], [None] * n
    for r in rounds:
        for i, (_, _, (prod, probs, error)) in r.items():
            if error:
                errors[i] = errors[i] or error
                continue
            problems[i].update(probs)
            if product[i] is None:
                product[i] = prod
            elif prod != product[i]:
                problems[i].add("output changed between rounds")
    return [p or {} for p in product], problems, errors


def run_meta(args, package, plain, traced):
    import numpy

    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = None
    return {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "click": click_version, "cactusq": package.__version__,
        "nproc": os.cpu_count(), "plain_rounds": len(plain),
        "traced_rounds": len(traced),
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name in ("circuit_ir.cancel_yield", "failed_share"):
        return "ratio"
    if name == "verify_sim.max_deviation":
        return "abs"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    package = import_package()
    import_s = time.perf_counter() - _T0
    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        bench = Bench(package.cli.main, args.workload, args.seed, run_dir)
        setup_s = import_s + median(bench.setup(i) for i in range(SETUP_REPEATS))
        once = bench.round(bench.once)
        tracer = Tracer() if args.trace else None
        plain, traced, layers = measure(bench, args.seconds, tracer, package)
        product, problems, errors = check_all(bench, [once] + plain + traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    jobs = bench.jobs
    correct = not any(problems)
    failed = sum(1 for e, p in zip(errors, problems) if e or p)
    job_s = {i: median(r[i][0] for r in plain) for i in bench.timed}
    job_cal = {i: median(r[i][1] for r in plain) for i in bench.timed}
    job_s.update((i, r[0]) for i, r in once.items())

    meta = run_meta(args, package, plain, traced)
    meta.update(import_s=import_s, wall_s=sum(job_s[i] for i in bench.timed),
                cal_s=median(bench.calibrate() for _ in range(99)))
    print(json.dumps({"meta": meta}))
    for i, (job, prod, probs, error) in enumerate(zip(jobs, product, problems, errors)):
        row = {"job": job.name, "command": job.command, "graph": job.graph.name,
               "n": job.graph.n, "blocks": job.graph.blocks, "seconds": job_s[i],
               "cal": job_cal.get(i), "timed": not job.once}
        for key in ("cnot", "k", "k_distinct", "revisits", "walk_len", "depth"):
            row[key] = prod.get(key)
        row["status"] = error or "; ".join(sorted(probs)) or "ok"
        print(json.dumps({"row": row}))

    if args.trace:
        values, layer_problems = per_layer(layers)
        if layer_problems:
            correct = False
            print(json.dumps({"problems": layer_problems}))
        values["trace.overhead_s"] = (median(sum(x[0] for x in r.values()) for r in traced)
                                      - median(sum(x[0] for x in r.values()) for r in plain))
        for key in ("cnot", "depth", "walk_len"):
            values[key + "_total"] = sum(p.get(key, 0) for p in product)
        values["failed_share"] = failed / len(jobs)
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv"))
    else:
        timed = [job_cal[i] for i in bench.timed]
        metrics = {
            "wall_cal": {"value": sum(timed), "unit": "cal"},
            "job_cal_p50": {"value": median(timed), "unit": "cal"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
