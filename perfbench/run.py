"""Benchmark entry point: one workload, one process, a closed loop of CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Set-up generates the inputs from the seed and makes one warm-up
call; it runs SETUPS times and its median is ``setup_s``.  Then one client
issues ``pugeo.cli.main(argv)`` calls back to back for S seconds.  Every
call's outputs must be byte-identical to the first call's, and the first
call's outputs pass a full check (perfbench/workloads.py).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced calls alternate and it carries the
per-layer metrics (perfbench/spans.py).  The line before it is a JSON
object with the run's context: machine, versions, input digests, samples.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads its BLAS, so every run uses one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INSTANCES = 3  # set-ups per run, each on its own inputs drawn from the seed
MIN_OPS = 3
MAX_RUN_S = 150.0  # stop timed calls early rather than overrun the 180 s limit
# typical seconds of each speed-probe part on a 2-core Xeon VM
PROBE_NOMINAL_S = {"interpreter": 0.024, "vector": 0.020, "matmul": 0.019}

END_TO_END = [
    ("setup_s", "s"), ("throughput", "items/s"), ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"), ("cd", "unit"), ("hd", "unit"), ("jsd", "nats"),
    ("p2f_mean", "unit"), ("normal_err_deg", "deg"), ("loss_final", "loss"),
]
QUALITY = [name for name, _ in END_TO_END[4:]]


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def speed_probe() -> float:
    """The machine's current slowness: 1.0 at nominal speed, 1.3 when 30% slower.

    The machine is shared and its speed drifts by 10-40% over seconds to
    minutes.  Three fixed kernels, each about 20 ms, mirror the workloads'
    kinds of work: interpreter loops with small numpy calls (BVH traversal,
    per-point fits), vector numpy over a few thousand points (FPS), and
    float32 matmuls (the network).  Scaling each measured interval by the
    mean of this probe taken right before and after it cancels most of the
    drift: on the 2-core VM the spread between 15-call windows fell from
    0.11-0.21 to 0.02-0.06 (IQR/median) across the three heaviest workloads.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.normal(size=(64, 3))
    points = rng.normal(size=(6000, 3))
    features = rng.normal(size=(2048, 64)).astype(np.float32)
    weights = rng.normal(size=(64, 64)).astype(np.float32)
    times = {}

    start = time.perf_counter()
    acc = 0.0
    for i in range(12_000):
        v = small[i % 64]
        acc += float(np.sqrt(v @ v)) + i * 0.5
    times["interpreter"] = time.perf_counter() - start

    start = time.perf_counter()
    nearest = np.full(len(points), np.inf)
    for i in range(100):
        np.minimum(nearest, np.linalg.norm(points - points[i], axis=1), out=nearest)
    times["vector"] = time.perf_counter() - start

    start = time.perf_counter()
    hidden = features
    for _ in range(60):
        hidden = np.maximum(features @ weights, 0.0) + 0.5 * hidden
    times["matmul"] = time.perf_counter() - start
    return sum(times[k] / PROBE_NOMINAL_S[k] for k in times) / len(times)


class Session:
    """Runs calls of one workload and keeps their outcome."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.installation = None  # the last traced call's wrappers

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        print(f"[perfbench] {self.name}: {message}", file=sys.stderr)

    def op(self, w, tracer=None):
        """One timed call; returns (seconds, stdout) or None when it failed."""
        workloads.clear(w.out)
        self.attempted += 1
        argv = w.argv()
        wrapped = spans.traced_cli(tracer) if tracer is not None else contextlib.nullcontext()
        try:
            with wrapped as installation:
                if installation is not None:
                    self.installation = installation
                start = time.perf_counter()
                code, stdout = workloads.run_cli(argv)
                elapsed = time.perf_counter() - start
        except SystemExit as exc:  # argparse rejected the arguments
            self.fail(f"exited {exc.code} while parsing {argv}")
            return None
        except Exception as exc:  # the program under test raised: a failed call
            self.fail(f"raised {type(exc).__name__}: {exc}")
            return None
        if code != 0:
            self.fail(f"exit code {code}")
            return None
        if w.digest is not None and self.output_digest(w, stdout) != w.digest:
            self.fail("output differs from the first call on the same inputs")
            return None
        return elapsed, stdout

    @staticmethod
    def output_digest(w, stdout: str) -> str:
        try:
            return w.output_digest(stdout)
        except OSError as exc:  # an expected output file is missing
            return f"unreadable output: {exc}"

    def setup(self, w, seed: int):
        """Generate inputs and make the checked warm-up call.

        Returns (seconds at nominal speed, raw seconds, input digests, the
        warm-up's stdout or None when it failed).
        """
        workloads.clear(w.inputs)
        os.makedirs(w.inputs)
        before = speed_probe()
        start = time.perf_counter()
        digests = w.generate(seed)
        warm = self.op(w)
        raw = time.perf_counter() - start
        scaled = raw / (0.5 * (before + speed_probe()))
        if warm is None:
            return scaled, raw, digests, None
        try:
            w.check(warm[1])
            w.digest = w.output_digest(warm[1])
        except Exception as exc:  # malformed output fails the check, never the run
            self.fail(f"check failed: {type(exc).__name__}: {exc}")
            return scaled, raw, digests, None
        return scaled, raw, digests, warm[1]


def timed_loop(seconds: float, step) -> None:
    start = time.perf_counter()
    done = 0
    while True:
        step(done)
        done += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and done >= MIN_OPS) or elapsed >= MAX_RUN_S:
            break


def run_end_to_end(session: Session, inputs: list, seeds: list[int], args,
                   context: dict) -> tuple[bool, dict]:
    setup_scaled, setup_raw, digests, qualities = [], [], [], []
    for w, seed in zip(inputs, seeds):
        scaled, raw, generated, stdout = session.setup(w, seed)
        setup_scaled.append(scaled)
        setup_raw.append(raw)
        digests.append(generated)
        if stdout is not None:
            try:
                qualities.append(w.quality(stdout))
            except Exception as exc:  # malformed output fails the check, never the run
                session.fail(f"quality check failed: {type(exc).__name__}: {exc}")

    raw_times, scaled_times = [], []
    probes = [speed_probe()]

    def step(i):
        done = session.op(inputs[i % len(inputs)])
        probes.append(speed_probe())  # this call's "after" and the next one's "before"
        if done is not None:
            raw_times.append(done[0])
            scaled_times.append(done[0] / (0.5 * (probes[-2] + probes[-1])))

    timed_loop(args.seconds, step)
    correct = session.failed == 0 and len(qualities) == len(inputs)
    work = inputs[0].work()
    median = statistics.median(scaled_times) if scaled_times else 0.0
    raw_median = statistics.median(raw_times) if raw_times else 0.0
    quality = {name: statistics.median(q[name] for q in qualities) if qualities else 0.0
               for name in QUALITY + ["p2f_std"]}
    values = {
        "setup_s": statistics.median(setup_scaled),
        "throughput": work / median if median > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (session.attempted - session.failed) / session.attempted,
        **{name: quality[name] for name in QUALITY},
    }
    context.update({
        "input_seeds": seeds, "input_sha256": digests,
        "output_sha256": [w.digest for w in inputs],
        "setup_s_raw": setup_raw, "setup_s_scaled": setup_scaled,
        "op_s_raw": raw_times, "op_s_scaled": scaled_times, "ops_timed": len(raw_times),
        "probe_s": probes, "throughput_raw": work / raw_median if raw_median > 0 else 0.0,
        "work_per_op": work, "work_unit": inputs[0].work_unit,
        "quality_per_input": qualities, "p2f_std": quality["p2f_std"],
    })
    return correct, values


def run_traced(session: Session, inputs: list, seeds: list[int], args,
               context: dict) -> tuple[bool, dict]:
    w = inputs[0]
    _, _, digests, stdout = session.setup(w, seeds[0])
    tracer = spans.Tracer()
    plain, traced = [], []

    def step(_):
        for tr, sink in ((None, plain), (tracer, traced)):
            done = session.op(w, tr)
            if done is not None:
                sink.append(done[0])

    timed_loop(args.seconds, step)
    correct = stdout is not None and session.failed == 0 and bool(traced) and bool(plain)
    installation = session.installation
    ops = max(len(traced), 1)
    values = spans.layer_metrics(tracer, ops)
    unfired = installation.unfired(tracer, session.name)
    values.update({
        "trace.op_wall_s": statistics.median(traced) if traced else 0.0,
        "trace.overhead": (statistics.median(traced) / statistics.median(plain) - 1.0
                           if traced and plain else 0.0),
        "trace.coverage": spans.coverage(tracer),
        "trace.missing": len(installation.missing),
        "trace.unfired": len(unfired),
    })
    context.update({
        "input_seeds": seeds[:1], "input_sha256": [digests], "output_sha256": [w.digest],
        "ops_traced": len(traced), "ops_untraced": len(plain),
        "op_s_traced": traced, "op_s_untraced": plain,
        "missing": installation.missing, "unfired": unfired,
        "missing_but_expected": installation.unexpected_missing(session.name),
        "hook_errors": tracer.hook_errors[:5],
    })
    return correct, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import pugeo.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    rss_after_import_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not os.path.isdir(os.path.join(ROOT, "tests", "fixtures")):
        print(f"perfbench: fixture meshes not found under {ROOT}/tests/fixtures",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    make = workloads.WORKLOADS[args.workload]
    inputs = [make(ROOT, os.path.join(workdir, str(i))) for i in range(INSTANCES)]
    seeds = workloads.sub_seeds(args.seed, INSTANCES)
    session = Session(args.workload)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_info(), "closed_loop_clients": 1,
               "probe_nominal_s": PROBE_NOMINAL_S, "rss_after_import_mb": rss_after_import_mb}
    try:
        run = run_traced if args.trace else run_end_to_end
        correct, values = run(session, inputs, seeds, args, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    context["errors"] = session.errors
    units = dict(spans.LAYER_METRICS if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
