"""Benchmark of the nsfd command line, run in-process through ``nsfd.cli.main``.

    python3 bench/run.py --workload trajectory|audit|network --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One closed-loop client: a single process runs the ops back to back, with
no threads of its own.  Inputs are drawn from --seed before timing
starts (see workloads.py).  With --trace 0 the run reports the end-to-end
metrics listed in BENCHMARK.json; with --trace 1 it alternates untraced
and traced ops and reports the per-layer metrics (see tracer.py).  Every
op's outputs are checked; a nonzero exit code or a failed check counts
the op as failed.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  ``--workload all`` runs
every workload untraced and traced, each in its own process, and prints
every metric.

End-to-end times are scaled to a reference machine speed by a pure-Python
calibration loop run between the ops (see ``calibrate``), because this
kind of shared machine changes speed by tens of percent within minutes.
The unscaled values are printed and kept in the record.

Full records, with the environment, go to bench/.out/, and so do the
spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer, summarize  # noqa: E402
from workloads import KNOWN_DEFECTS, SMALL, WORKLOADS, host_vector_spec  # noqa: E402

SETUP_REPEATS = 7
# Calibration time after each untraced op, as a share of the op's time.
CALIB_SHARE = 0.1
# Ops on each side of an op whose calibration passes set its time scale.
KERNEL_WINDOW = 2
# Op timings are scaled by REFERENCE_KERNEL_S / (the median pure-Python
# calibration time around the op), and set-up by REFERENCE_IMPORT_S / (the
# median time to import numpy in a fresh interpreter): they read as seconds
# on a machine that runs those kernels in that time, and machine drift
# between runs cancels.
REFERENCE_KERNEL_S = 0.02
REFERENCE_IMPORT_S = 0.08
# A tail percentile needs this many samples above it.
TAIL_SAMPLES_BEYOND = 10
# Self times may miss the op time by at most the tracing overhead, or 1%.
SELF_SUM_FLOOR = 0.01


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import nsfd from this checkout's src/, never from an installed copy."""
    if not (SRC / "nsfd" / "cli.py").is_file():
        raise ImportError(f"program source {SRC / 'nsfd'} not found")
    sys.path.insert(0, str(SRC))
    import nsfd.cli

    if Path(nsfd.__file__).resolve().parent != SRC / "nsfd":
        raise ImportError(f"nsfd imported from {nsfd.__file__}, not from {SRC}")
    return nsfd


# ---------------------------------------------------------------- environment


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


_KERNEL_SPEC = host_vector_spec()


def calibrate() -> tuple[float, float]:
    """Seconds for a fixed pure-Python loop and for a fixed numpy step loop.

    Neither uses the program.  This machine's speed drifts by tens of
    percent within minutes.  The pure-Python part drifts like the ops of
    every workload (their ratio held within about 5% while raw op times
    moved by 17-19%), so it sets the time scale; the numpy part is recorded.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    x = np.array([5.0, 1.0, 5.0, 1.0, 1.0])
    for _ in range(100):
        x = _KERNEL_SPEC.forward_step(x, 0.5)
    return t1 - t0, time.perf_counter() - t1


# ---------------------------------------------------------------- measuring


def calibrate_for(seconds: float) -> list[tuple[float, float]]:
    """Calibration passes, at least one, until they have taken ``seconds``."""
    kernels = [calibrate()]
    while sum(map(sum, kernels)) < seconds:
        kernels.append(calibrate())
    return kernels


def _timed_child(code: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints its own elapsed seconds last."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _timed_code(*lines: str) -> str:
    return "\n".join(["import time", "t0 = time.perf_counter()", *lines,
                      "print(time.perf_counter() - t0)"])


def setup_times(wl, repeats: int) -> tuple[list[float], list[float]]:
    """Set-up and import-kernel seconds, alternating in fresh interpreters.

    Set-up imports nsfd.cli, builds or loads the model and runs step_bound.
    The import kernel imports numpy alone.  Import time drifts with the
    machine less than Python loops do, and like numpy's import, which is
    most of the set-up.  The first set-up fills the bytecode cache and is
    not counted.
    """
    setup = _timed_code("import sys", f"sys.path.insert(0, {str(SRC)!r})", "import nsfd.cli",
                        wl.build_model, "from nsfd.integrator import step_bound",
                        "step_bound(model)")
    kernel = _timed_code("import numpy")
    _timed_child(setup)
    times, kernels = [], []
    for _ in range(repeats):
        kernels.append(_timed_child(kernel))
        times.append(_timed_child(setup))
    return times, kernels


def run_op(cli, argvs) -> tuple[float, float, str | None]:
    """Wall and CPU seconds of one op, and why it failed (None when it did not)."""
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for argv in argvs:
            rc = cli.main(argv)
            if rc != 0:
                error = f"{argv[0]} exited {rc}"
                break
    except Exception:  # a traceback is a failed op, not a failed run
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall = time.perf_counter() - t0
    return wall, time.process_time() - c0, error


def checked(wl, i: int, error: str | None) -> str | None:
    if error is not None:
        return error
    try:
        problems = wl.check(i)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return "; ".join(problems) or None


def checker_selftest(cls, seed: int, workdir: str, cli) -> list[str]:
    """A small op of the same kind must pass; the same output corrupted must fail."""
    sub = os.path.join(workdir, "small")
    os.makedirs(sub, exist_ok=True)
    small = cls(seed, sub, **SMALL[cls.name])
    problems = []
    for i in range(2):  # also the warm-up
        _, _, error = run_op(cli, small.ops(i))
        error = checked(small, i, error)
        if error:
            problems.append(f"small op {i} failed: {error}")
    small.corrupt()
    if not problems and checked(small, 1, None) is None:
        problems.append("a corrupted output passed the output check")
    return problems


def binding_selftest(nsfd) -> list[str]:
    """Calls through four names of lu_solve must give four root spans."""
    probe = Tracer()
    probe.install()
    try:
        problems = probe.binding_problems()
        a, b = 2.0 * np.eye(2), np.ones(2)
        for mod in (nsfd, nsfd.linalg, nsfd.integrator, nsfd.analysis):
            mod.lu_solve(a, b)
        spans = probe.spans()
    finally:
        probe.uninstall()
    lu = probe.names.index("linalg.lu_solve")
    if not (spans["name"].size == 4 and np.all(spans["name"] == lu) and np.all(spans["parent"] == -1)):
        problems.append(f"4 lu_solve calls gave spans {spans['name'].tolist()}")
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "nsfd" and any(hasattr(v, "__traced__") for v in vars(mod).values()):
            problems.append(f"{mod_name} keeps a wrapper after uninstall")
    return problems


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with TAIL_SAMPLES_BEYOND samples above it.

    With fewer than 2 * TAIL_SAMPLES_BEYOND samples no percentile from the
    median up qualifies; the median is reported and the record says so.
    """
    arr = np.asarray(values)
    for pct in range(99, 49, -1):
        value = float(np.percentile(arr, pct))
        if int((arr > value).sum()) >= TAIL_SAMPLES_BEYOND:
            return value, pct
    return float(np.median(arr)), 50


def measure(cls, seed: int, seconds: float, traced: bool, nsfd, workdir: str) -> dict:
    cli = nsfd.cli
    wl = cls(seed, workdir)
    result: dict = {"selftest_problems": [], "ops": []}
    if not traced:
        result["setup"], result["setup_kernel"] = setup_times(wl, SETUP_REPEATS)
    result["selftest_problems"] += checker_selftest(cls, seed, workdir, cli)
    tracer = None
    if traced:
        result["selftest_problems"] += binding_selftest(nsfd)
        tracer = Tracer()
        result["names"] = tracer.names
        result["spans"] = []
    deadline = time.perf_counter() + seconds
    min_ops = 2 if traced else 1  # a traced run needs an untraced and a traced op
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        trace_this = traced and i % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install()
            if i == 1:
                result["selftest_problems"] += tracer.binding_problems()
        try:
            wall, cpu, error = run_op(cli, wl.ops(i))
        finally:
            if trace_this:
                tracer.uninstall()
        error = checked(wl, i, error)
        op = {"i": i, "wall": wall, "cpu": cpu, "error": error, "traced": trace_this}
        if error is None:
            op["steps"] = wl.state_steps(i)
        if trace_this:
            spans = tracer.spans()
            result["spans"].append(spans)
            summary = summarize(spans, tracer.names)
            op["layers"] = summary
            for key, want in wl.exact_counts(i).items():
                if summary[key] != want:
                    result["selftest_problems"].append(f"op {i}: {key} = {summary[key]}, expected {want}")
            if summary["min_self_s"] < -1e-9:
                result["selftest_problems"].append(f"op {i}: negative self time {summary['min_self_s']}")
        result["ops"].append(op)
        i += 1
        if not traced:
            op["kernels"] = calibrate_for(CALIB_SHARE * wall)
    if hasattr(wl, "defect_probe"):
        case, argv = wl.defect_probe()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        result["defect_probe"] = {"case": case, "exit": code, "stderr": err.getvalue().strip()}
    result["workload"] = wl
    return result


# ---------------------------------------------------------------- metrics


def end_to_end(result: dict) -> tuple[dict, dict]:
    """End-to-end metrics, timings scaled to the reference machine speed.

    Op i is scaled by the median pure-Python calibration time measured after
    ops i - KERNEL_WINDOW to i + KERNEL_WINDOW, which follows drift within a
    run as well as between runs.
    """
    ops = result["ops"]
    for i, op in enumerate(ops):
        near = ops[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]
        op["scale"] = REFERENCE_KERNEL_S / statistics.median(k[0] for o in near for k in o["kernels"])
    good = [op for op in ops if op["error"] is None] or ops
    walls = [op["wall"] * op["scale"] for op in good]
    tail_value, tail_pct = tail(walls)
    setup_kernel = statistics.median(result["setup_kernel"])
    metrics = {
        "setup_s": statistics.median(result["setup"]) * REFERENCE_IMPORT_S / setup_kernel,
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_value,
        "cpu_s_per_op": statistics.median(op["cpu"] * op["scale"] for op in good),
        "state_steps_per_s": statistics.median(
            op.get("steps", 0) / (op["wall"] * op["scale"]) for op in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": sum(op["error"] is not None for op in ops) / len(ops),
    }
    unscaled_walls = [op["wall"] for op in good]
    kernels = [k for op in ops for k in op["kernels"]]
    extra = {
        "unscaled": {
            "setup_s": statistics.median(result["setup"]),
            "op_s.p50": statistics.median(unscaled_walls),
            "op_s.tail": tail(unscaled_walls)[0],
            "cpu_s_per_op": statistics.median(op["cpu"] for op in good),
        },
        "env.calib_s.median": {
            "python": statistics.median(k[0] for k in kernels),
            "numpy": statistics.median(k[1] for k in kernels),
            "numpy_import": setup_kernel,
        },
        "calib_samples": len(kernels),
        "op_samples": len(walls),
        "op_s.tail_percentile": tail_pct,
        "setup_samples": len(result["setup"]),
        "op_s_all": [op["wall"] for op in ops],
        "op_scale_all": [op["scale"] for op in ops],
        "setup_s_all": result["setup"],
    }
    return metrics, extra


def _mean(ops: list[dict], key: str) -> float:
    return sum(op["layers"][key] for op in ops) / len(ops)


def per_layer(result: dict) -> tuple[dict, dict]:
    wl = result["workload"]
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op for op in result["ops"] if not op["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        if key.endswith((".calls", ".self_s", ".rows")):
            metrics[key] = _mean(traced, key)
    metrics["model.jacobian.self_s"] = sum(
        metrics[f"model.{f}.self_s"] for f in ("f_jacobian", "assemble_P", "assemble_Q"))
    metrics["invariance.tangent.self_s"] = sum(
        metrics[f"invariance.{f}.self_s"] for f in ("continuous_tangent", "discrete_tangent"))
    metrics["linalg.lu_solve_batch.mflops_computed"] = (
        (2.0 / 3.0 * wl.n**3 + 2.0 * wl.n**2) * metrics["linalg.lu_solve_batch.rows"] / 1e6)
    metrics["analysis.find_equilibria.newton_solves"] = _mean(traced, "newton_solves")
    attempted = getattr(wl, "audit_state_steps", 0)
    metrics["invariance.live_ratio"] = _mean(traced, "audit_rows") / attempted if attempted else 0.0
    traced_p50 = statistics.median(op["wall"] for op in traced)
    plain_p50 = statistics.median(op["wall"] for op in plain)
    metrics["trace.overhead"] = traced_p50 / plain_p50 - 1.0
    self_gap = statistics.mean(
        (op["wall"] - op["layers"]["self_sum_s"]) / op["wall"] for op in traced)
    limit = max(abs(metrics["trace.overhead"]), SELF_SUM_FLOOR)
    if abs(self_gap) > limit:
        result["selftest_problems"].append(
            f"self times miss the traced op time by {self_gap:.4f}, more than {limit:.4f}")
    extra = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "op_s.p50.traced": traced_p50,
        "op_s.p50.untraced": plain_p50,
        "self_sum_gap": self_gap,
    }
    return metrics, extra


def write_spans(name: str, result: dict) -> str:
    parts = result["spans"]
    ops = np.concatenate([np.full(p["name"].size, k) for k, p in enumerate(parts)])
    path = OUT_DIR / f"trace-{name}.npz"
    np.savez(path, op=ops, names=np.array(result["names"]),
             **{key: np.concatenate([p[key] for p in parts]) for key in parts[0]})
    return str(path.relative_to(ROOT))


def print_report(record: dict) -> None:
    """Every metric by name with its unit, then the facts a reader needs to trust them."""
    env, calib, name = record["environment"], record["env.calib_s"], record["workload"]
    print(f"# {name} seed={record['seed']} trace={record['trace']}: {record['why']}")
    print(f"#   cpu={env['cpu']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} blas_threads={env['blas_threads']} "
          f"git={env['git_sha']}")
    print("#   env.calib_s " + " ".join(
        f"{when}.{part}={calib[when][part]:.4f}" for when in calib for part in calib[when]))
    for metric, entry in record["metrics"].items():
        print(f"{name:<10} {metric:<45} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:<10} {'error_rate':<45} {record['error_rate']:>14.6g} ratio")
    for key, value in record["extra"].items():
        if isinstance(value, dict):
            print(f"#   {key}: " + ", ".join(f"{k}={v:.6g}" for k, v in value.items()))
        elif not isinstance(value, list):
            print(f"#   {key} = {value}")
    probe = record["defect_probe"]
    if probe:
        print(f"#   known-defect probe: {probe['case']} exited {probe['exit']}: {probe['stderr']}")
    for line in record["failures"] + record["selftest_problems"]:
        print(f"#   PROBLEM: {line}")


def run_one(args) -> int:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    try:
        nsfd = _import_program()
    except ImportError as exc:
        return _fail(str(exc))
    cls = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    traced = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            calib_before = calibrate()
            result = measure(cls, args.seed, args.seconds, traced, nsfd, workdir)
            calib_after = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, extra = (per_layer if traced else end_to_end)(result)
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    ops = result["ops"]
    failed = sum(op["error"] is not None for op in ops)
    problems = result["selftest_problems"]
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "client": "closed loop, 1 client, ops back to back in one process",
        "environment": env,
        "env.calib_s": {
            "before": dict(zip(("python", "numpy"), calib_before)),
            "after": dict(zip(("python", "numpy"), calib_after)),
        },
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "extra": extra,
        "error_rate": failed / len(ops),
        "failures": [f"op {op['i']}: {op['error']}" for op in ops if op["error"]][:20],
        "selftest_problems": problems,
        "known_defects": KNOWN_DEFECTS,
        "defect_probe": result.get("defect_probe"),
    }
    if traced:
        record["spans_file"] = write_spans(args.workload, result)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print_report(record)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return _fail(f"{name} trace={trace} exited {done.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            last = json.loads(lines[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            metrics.update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    args.seed %= 2**63  # numpy seeds are nonnegative
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
