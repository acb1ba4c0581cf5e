"""colorlie benchmark: one workload, one job at a time, from one process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md): validate and roots run `colorlie` verbs as
subprocesses, timed from spawn to exit; modules and decompose call the
library in this process, timed around each call.  A run repeats whole
rounds of the same jobs while another round fits in S seconds (at least
one), checks every output with checks.py, and prints one JSON line last.
--trace 1 patches colorlie's public functions with the wrappers in
tracing.py, runs the CLI verbs in-process, and reports per-layer metrics
instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import checks  # noqa: E402  (perfbench/ is the script directory)
import inputs  # noqa: E402

WORKLOADS = ("validate", "roots", "modules", "decompose")
SETUP_REPEATS = 5

# the layers each workload is chosen for, as traced span names
NAMED_LAYERS = {
    "validate": ["algebra.check_axioms"],
    "roots": ["roots.weyl_group"],
    "modules": ["reps.is_representation"],
    "decompose": ["reps.decompose", "reps.grading_synthesis"],
}

PER_LAYER = [
    "scalars.GQ.new.calls", "scalars.GQ.add.calls", "scalars.GQ.mul.calls",
    "scalars.GQ.div.calls",
    "linalg.vec_axpy.calls", "linalg.SMat.matmul.calls", "linalg.SMat.matmul.s",
    "linalg.SMat.matvec.calls", "linalg.SubspaceBasis.add.calls",
    "linalg.SubspaceBasis.add.s", "linalg.kernel_basis.s", "linalg.invert.s",
    "linalg.minimal_polynomial.s", "linalg.gaussian_rational_roots.s",
    "linalg.eigensplit.s",
    "algebra.from_matrices.s", "algebra.check_axioms.s", "algebra.killing_form.s",
    "algebra.is_basic.s",
    "roots.find_cartan.s", "roots.root_decomposition.s",
    "roots.positive_and_simple.s", "roots.enhanced_dynkin.s", "roots.weyl_group.s",
    "reps.tensor_product.s", "reps.is_representation.s", "reps.casimir_matrix.s",
    "reps.weight_decomposition.s", "reps.decompose.s", "reps.grading_synthesis.s",
    "serialize.algebra_from_json.s", "serialize.root_system_report.s",
    "cli.startup.s", "cli.validate.s", "cli.roots.s",
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv):
    """Run a child to exit: (exit code, wall s, user+sys s, max RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


# --------------------------------------------------------------------------
# jobs: one operation each; `outputs` holds what checks.py reads, per round
# (None where the operation failed)
# --------------------------------------------------------------------------

class Job:
    def __init__(self, name):
        self.name = name
        self.outputs = []

    def check(self, output, done):
        raise NotImplementedError


class CliJob(Job):
    def __init__(self, verb, stem):
        super().__init__(f"{verb} {stem}")
        self.verb, self.stem = verb, stem
        self.out = WORK / f"out-{verb}-{stem}.json"
        self.argv = [verb, str(WORK / f"{stem}.json"), "-o", str(self.out)]

    def run_untraced(self):
        if self.out.exists():
            self.out.unlink()
        code, wall, cpu, rss = spawn([sys.executable, "-m", "colorlie.cli", *self.argv])
        return code == 0, wall, cpu, rss

    def run_traced(self, tracer):
        from colorlie import cli

        with contextlib.redirect_stderr(io.StringIO()):
            code = tracer.span(f"cli.{self.verb}", cli.main, list(self.argv))
        return code == 0

    def output(self):
        return json.loads(self.out.read_text())

    def check(self, output, done):
        stem_doc = json.loads((WORK / f"{self.stem}.json").read_text())
        if self.verb == "validate":
            checks.check_validate(output, stem_doc, inputs.SO_INPUTS[self.stem])
        elif self.stem == inputs.HINT_FREE:
            hinted = done["roots so4222"]
            checks.check_roots_hint_free(output, hinted, inputs.SO_INPUTS["so4222"])
        else:
            checks.check_roots(output, inputs.SO_INPUTS[self.stem])


class LibJob(Job):
    def __init__(self, name, call, report, check):
        super().__init__(name)
        self.call, self.report, self._check = call, report, check

    def run(self):
        from colorlie import ColorLieError

        try:
            result = self.call()
        except ColorLieError as e:
            print(f"{self.name}: {e}", file=sys.stderr)
            return False, None
        return True, result

    def check(self, output, done):
        self._check(output)


def cli_jobs(workload):
    stems = list(inputs.SO_INPUTS)
    jobs = [CliJob(workload, s) for s in stems]
    if workload == "roots":
        jobs.append(CliJob("roots", inputs.HINT_FREE))
    return jobs


def lib_jobs(workload, mods):
    from colorlie import decompose, grading_synthesis, is_representation, serialize

    fx = mods.fixture
    cartan = list(fx.cartan_indices)
    m = len(cartan)
    jobs = []
    if workload == "modules":
        for name, rep in mods.reps.items():
            jobs.append(LibJob(
                f"is_representation {name}",
                lambda rep=rep: is_representation(rep),
                lambda r: (list(r.lines()), r.ok),
                lambda out: checks.check_module_report(*out)))
        return jobs
    expected = {"defining": [10], "adjoint": [45], "tensor": [1, 45, 54]}
    for name, rep in mods.reps.items():
        jobs.append(LibJob(
            f"decompose {name}",
            lambda rep=rep: decompose(rep, mods.rs),
            serialize.decomposition_report,
            lambda out, rep=rep, name=name: checks.check_components(
                out, rep.dim, expected[name], m)))
    defining = checks.defining_weight_basis(m)
    bases = {"defining": defining,
             "tensor": checks.tensor_weight_basis(defining, 2 * m)}
    for name, basis in bases.items():
        rep = mods.reps[name]
        jobs.append(LibJob(
            f"grading_synthesis {name}",
            lambda rep=rep: grading_synthesis(rep, mods.rs),
            lambda grading: grading,
            lambda out, rep=rep, basis=basis: checks.check_grading(
                out, [checks.pair_rows(mat) for mat in rep.matrices],
                mods.algebra.degrees, cartan, basis)))
    return jobs


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def timed_setup(workload):
    """SETUP_REPEATS fresh interpreters that import colorlie and build the
    inputs; returns their median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn([sys.executable, str(HERE / "inputs.py"), workload, str(WORK)])
        if code != 0:
            raise SystemExit(f"set-up for {workload} exited with {code}")
        times.append(wall)
    return statistics.median(times)


def rounds(seconds, one_round):
    """Whole rounds while another one is expected to fit; at least one."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(durations) > seconds:
            return len(durations)


def check_outputs(jobs):
    """Every round's output equals the first, and the first passes its check.
    Jobs are checked in definition order: the hint-free roots check reads
    the hinted so4222 output."""
    done = {}
    for job in jobs:
        outs = [o for o in job.outputs if o is not None]
        if not outs:
            continue
        if any(o != outs[0] for o in outs[1:]):
            raise checks.CheckFailed(f"{job.name}: output differs between rounds")
        try:
            job.check(outs[0], done)
        except checks.CheckFailed as e:
            raise checks.CheckFailed(f"{job.name}: {e}") from None
        done[job.name] = outs[0]


def order_jobs(jobs, seed):
    """The order of the jobs within every round, fixed by the seed."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order


def run_untraced(workload, seed, seconds):
    WORK.mkdir(exist_ok=True)
    setup_s = timed_setup(workload)
    mods = None if workload in ("validate", "roots") else inputs.build(workload, WORK)
    jobs = cli_jobs(workload) if mods is None else lib_jobs(workload, mods)
    order = order_jobs(jobs, seed)
    walls = {job.name: [] for job in jobs}
    cpus = {job.name: [] for job in jobs}
    rss = [0.0]
    failed = 0

    def one_round():
        nonlocal failed
        for job in order:
            if isinstance(job, CliJob):
                ok, wall, cpu, peak = job.run_untraced()
                rss.append(peak)
                out = job.output() if ok else None
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                ok, result = job.run()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                out = job.report(result) if ok else None
            walls[job.name].append(wall)
            cpus[job.name].append(cpu)
            failed += not ok
            job.outputs.append(out)

    n = rounds(seconds, one_round)
    if mods is not None:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {
        "wall_s": (sum(statistics.median(w) for w in walls.values()), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus.values()), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return jobs, n, failed, metrics, {"job_wall_s": walls}


def run_traced(workload, seed, seconds):
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    startup = statistics.median(
        spawn([sys.executable, "-c", "import colorlie.cli"])[1] for _ in range(3))
    import colorlie.cli  # noqa: F401  (load every module before patching)

    tracer = Tracer()
    tracer.install()
    try:
        mods = inputs.build(workload, WORK)
        jobs = cli_jobs(workload) if mods is None else lib_jobs(workload, mods)
        order = order_jobs(jobs, seed)
        base_calls, base_incl = tracer.snapshot()
        deltas, walls = [], []
        failed = 0

        def one_round():
            nonlocal failed
            calls0, incl0 = tracer.snapshot()
            t0 = time.perf_counter()
            for job in order:
                if isinstance(job, CliJob):
                    ok = job.run_traced(tracer)
                    out = job.output() if ok else None
                else:
                    ok, result = tracer.span(f"job {job.name}", job.run)
                    out = job.report(result) if ok else None
                failed += not ok
                job.outputs.append(out)
            walls.append(time.perf_counter() - t0)
            calls1, incl1 = tracer.snapshot()
            deltas.append((calls1 - calls0,
                           {k: v - incl0.get(k, 0.0) for k, v in incl1.items()}))

        n = rounds(seconds, one_round)
    finally:
        tracer.uninstall()

    def value(metric):
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            return base_calls[name] + statistics.median_low(d[0][name] for d in deltas)
        return base_incl.get(name, 0.0) + statistics.median(d[1].get(name, 0.0) for d in deltas)

    metrics = {m: (value(m), "count" if m.endswith(".calls") else "s") for m in PER_LAYER}
    metrics["cli.startup.s"] = (startup, "s")
    share = statistics.median(
        sum(d[1].get(layer, 0.0) for layer in NAMED_LAYERS[workload]) / wall
        for d, wall in zip(deltas, walls))
    info = {"traced_round_wall_s": walls, "named_layers": NAMED_LAYERS[workload],
            "named_share": share}
    (WORK / f"trace-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "rounds": n, **info,
         "spans": tracer.summary()}, indent=1, sort_keys=True))
    return jobs, n, failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (SRC / "colorlie" / "__init__.py").is_file():
        print(f"run.py: no colorlie sources under {SRC}", file=sys.stderr)
        return 2
    if not (compileall.compile_dir(str(SRC), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1)):
        print("run.py: bytecode compilation failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = run_traced if args.trace else run_untraced
    jobs, n, failed, metrics, info = run(args.workload, args.seed, args.seconds)
    correct = True
    try:
        check_outputs(jobs)
    except checks.CheckFailed as e:
        print(f"run.py: check failed: {e}", file=sys.stderr)
        correct = False
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"], "workload": args.workload,
           "seed": args.seed, "trace": args.trace, "rounds": n,
           "jobs": [j.name for j in order_jobs(jobs, args.seed)], **info}
    print("# " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": n * len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
