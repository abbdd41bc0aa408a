"""csirecip benchmark: one closed-loop workload per run, one client thread.

    python3 benchmarks/run.py --workload keygen-compare --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the checkout this file sits in; without it the run exits with code 2.

Each op gets a fresh seed derived from ``--seed`` and the op index, so no
input repeats within a run.  Inputs are built and outputs checked outside
the timed region.  Set-up (imports, one op input and one warm-up op) is
timed ``SETUP_RUNS`` times, each a cold start: once in this process and
the other times in a fresh child process.  ``setup_s`` is the median,
scaled to a nominal host speed (see ``SETUP_REF_MS``).

``--trace 0`` times ops until it has at least ``MIN_OPS`` ops and
``--seconds`` of op time, so that ten ops lie beyond the p90, and prints
the end-to-end metrics named in BENCHMARK.json.  Latencies are scaled to
a nominal host speed (see ``REF_MS``); the raw figures are among the
diagnostics.

``--trace 1`` needs only ``MIN_TRACED_RUN_OPS`` ops.  It traces every
other op (see tracer.py), prints the per-layer metrics and writes the
spans to ``.bench_out/spans-<workload>.jsonl``.  The figures are taken
over the traced ops among the first ``MIN_TRACED_RUN_OPS``, so the work
counters repeat exactly for a given seed.  The untraced ops in between
give the tracing overhead.

The last line of standard output is the result as one JSON object; the
line before it stamps versions, host and diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_OPS = 100
MIN_TRACED_RUN_OPS = 40  # per-layer figures need no tail percentile
SETUP_RUNS = 3
LOOP_DEADLINE_S = 130.0  # the whole run must end within 180 s
SETUP_TIMEOUT_S = 60.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Host-speed reference, timed right before and right after every op: the
# geometric mean of a fixed pure-Python loop and a numpy sort of a fixed
# array, so that it follows both interpreter speed and memory bandwidth.
# On a shared 2-core host the speed of the whole machine drifts by +-20%
# over tens of seconds, and switches between a fast and a slow state
# within seconds; op time follows it.  Each op's latency is scaled by
# REF_MS over the mean of its two reference times, i.e. to a host that
# runs the reference in REF_MS.  A reference timed only before each op,
# or a median over neighbouring ops, tracked the switches less well.
REF_LOOPS = 60_000
REF_SORT_N = 200_000
REF_MS = 3.5

# Set-up reference: set-up is mostly importing numpy and scipy, and its
# time drifts by +-20% over minutes with the host's page-fault speed, not
# with the op reference above.  Each set-up sample is scaled by
# SETUP_REF_MS over the time to fault in SETUP_REF_MB of fresh memory,
# timed right before it in the same process.  SETUP_REF_MB stays well
# below what importing numpy alone adds, so that it never sets the run's
# peak_rss_mb.
SETUP_REF_MB = 16
SETUP_REF_MS = 12.5


class Op(NamedTuple):
    index: int
    ms: float
    ref_ms: float
    error: str | None
    traced: bool


def op_seed(seed: int, index: int) -> int:
    """Channel seed of op ``index`` (index -1 is the warm-up op)."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def page_touch_ms() -> float:
    """Milliseconds to fault in SETUP_REF_MB of fresh anonymous memory."""
    t = time.perf_counter()
    with mmap.mmap(-1, SETUP_REF_MB << 20) as m:
        for i in range(0, len(m), mmap.PAGESIZE):
            m[i] = 1
    return 1e3 * (time.perf_counter() - t)


def setup(workload: str, seed: int, workdir: Path):
    """Import the library, build one op input and run one warm-up op.

    Returns the workload, the seconds this took and the page-touch time
    (see SETUP_REF_MS) taken just before.  It is timed cold only in a
    process that has imported nothing but the standard library.
    """
    ref = page_touch_ms()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(workload, workdir)
    inp = wl.make_input(op_seed(seed, -1))
    out = wl.run(inp)
    elapsed = time.perf_counter() - t0
    reason = wl.check(inp, out)
    if reason:
        raise RuntimeError(f"warm-up op failed its check: {reason}")
    return wl, elapsed, ref


# Child process that times one cold set-up; argv: sys.path entries, workload,
# seed, workdir.  Only the standard library is imported before setup().
SETUP_CHILD = """\
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import run
print(*run.setup(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))[1:])
"""


def child_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """One cold set-up timed in a fresh child process: seconds, page-touch ms."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(BENCH_DIR),
         workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-500:]}")
    seconds, ref = proc.stdout.split()[-2:]
    return float(seconds), float(ref)


def reference_ms(sort_input) -> float:
    """Milliseconds of the host-speed reference (see REF_MS)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for k in range(REF_LOOPS):
        acc += k * k
    t1 = time.perf_counter()
    np.sort(sort_input)
    t2 = time.perf_counter()
    return 1e3 * math.sqrt((t1 - t0) * (t2 - t1))


def corrected_ms(ops: list[Op]) -> list[float]:
    """Op latencies scaled to the nominal host speed (see REF_MS)."""
    return [op.ms * REF_MS / op.ref_ms for op in ops]


def git_sha() -> str:
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


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def stamp(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_ms[max(0, math.ceil(q * len(sorted_ms)) - 1)]


def measure(wl, args, tracer, min_ops: int):
    """The timed closed loop.

    Returns one :class:`Op` per op, and the per-op diagnostics of the ops
    that passed their check.
    """
    import numpy as np

    sort_input = np.random.default_rng(0).standard_normal(REF_SORT_N)
    ops: list[Op] = []
    notes = []
    timed = 0.0
    start = time.perf_counter()
    i = 0
    while ((i < min_ops or timed < args.seconds)
           and time.perf_counter() - start < LOOP_DEADLINE_S):
        inp = wl.make_input(op_seed(args.seed, i))
        ref_before = reference_ms(sort_input)
        traced = tracer is not None and i % 2 == 0
        ctx = tracer.op(i) if traced else contextlib.nullcontext()
        error = None
        t = time.perf_counter()
        try:
            with ctx:
                out = wl.run(inp)
        except Exception as e:  # a failed op is counted, the loop goes on
            error = f"raised {e!r}"
        dt = time.perf_counter() - t
        timed += dt
        ref = (ref_before + reference_ms(sort_input)) / 2
        if error is None:
            try:
                error = wl.check(inp, out)
            except Exception as e:
                error = f"check raised {e!r}"
        if error is None:
            notes.append(wl.diagnose(inp, out))
        ops.append(Op(i, 1e3 * dt, ref, error, traced))
        i += 1
    return ops, notes


def latency(ms: list[float], ops: list[Op]) -> dict[str, float]:
    ok = sorted(m for m, op in zip(ms, ops) if op.error is None)
    return {
        "ops_per_s": 1e3 * len(ok) / sum(ms),
        "op_p50_ms": statistics.median(ok),
        "op_p90_ms": percentile(ok, 0.9),
    }


def per_layer(ops: list[Op], tracer) -> dict[str, float]:
    out = tracer.layer_metrics({op.index for op in ops
                                if op.traced and op.index < MIN_TRACED_RUN_OPS})
    traced_ms = [op.ms for op in ops if op.traced]
    plain_ms = [op.ms for op in ops if not op.traced]
    out["trace.ops_per_s"] = 1e3 / statistics.fmean(traced_ms)
    out["trace.untraced_ops_per_s"] = 1e3 / statistics.fmean(plain_ms)
    out["trace.overhead_ratio"] = out["trace.untraced_ops_per_s"] / out["trace.ops_per_s"]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    if not (ROOT / "src" / "csirecip" / "__init__.py").is_file():
        print(f"error: no csirecip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # cap the pools at nproc before numpy is imported
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        wl, seconds, ref = setup(args.workload, args.seed, workdir)
        setups = [(seconds, ref)] + [child_setup(args.workload, args.seed, workdir)
                                     for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        import csirecip

        if Path(csirecip.__file__).resolve().parent != ROOT / "src" / "csirecip":
            print(f"error: imported csirecip from {csirecip.__file__}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        ops, notes = measure(wl, args, tracer,
                             MIN_TRACED_RUN_OPS if args.trace else MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = [(op.index, op.error) for op in ops if op.error]
        attempted, failed = len(ops), len(errors)
        if attempted == failed:
            print(f"error: no op succeeded: {errors[:3]}", file=sys.stderr)
            return 1

        raw = latency([op.ms for op in ops], ops)
        diagnostics = {"ops": attempted, "fail_ratio": failed / attempted,
                       "first_errors": errors[:3],
                       "ref_ms_median": statistics.median(op.ref_ms for op in ops),
                       **{f"raw_{k}": v for k, v in raw.items()}}
        for key in notes[0]:
            diagnostics[f"op_{key}"] = statistics.fmean(n[key] for n in notes)
        quality_ok = True
        if args.trace:
            metrics = per_layer(ops, tracer)
            wanted = spec["per_layer"]
            tracer.write(out_dir / f"spans-{args.workload}.jsonl")
        else:
            import workloads

            quality = workloads.quality()
            quality_ok = not quality["lag_errors"]
            diagnostics["quality_lag_errors"] = quality["lag_errors"]
            metrics = {
                "setup_s": statistics.median(s * SETUP_REF_MS / r for s, r in setups),
                **latency(corrected_ms(ops), ops),
                "peak_rss_mb": peak_rss_mb,
                **{k: quality[k] for k in ("kgr_wt_t15", "ber_wt", "auth_accuracy")},
            }
            diagnostics["quality_auth_error_ratio"] = quality["auth_error_ratio"]
            diagnostics["setup_s_samples"] = [s for s, _ in setups]
            diagnostics["setup_page_touch_ms"] = [r for _, r in setups]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result_metrics = {}
    for m in wanted:
        if args.trace and not tracer.knows(m["name"]):
            raise ValueError(f"per-layer metric {m['name']!r} names no traced function")
        # a traced function this workload never calls did zero work
        value = metrics.get(m["name"], 0.0) if args.trace else metrics[m["name"]]
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"stamp": stamp(args, nproc), "diagnostics": diagnostics}))
    print(json.dumps({"correct": failed == 0 and quality_ok, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
