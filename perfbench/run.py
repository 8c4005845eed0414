"""Benchmark of cfcomm: one workload, one seed, one run.

    python3 perfbench/run.py --workload zeno_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; cfcomm is imported from ``src/``.  The load
is a closed loop: one process, one operation at a time, BLAS pinned to one
thread.  The run

1. times cold starts in fresh interpreters (import cfcomm, then one small
   ``cfcomm run``) and takes their median;
2. warms up on the operations of the workload's two smallest K;
3. repeats the workload's fixed batch of operations until the next batch
   would end past ``--seconds`` (at least one batch), checking every output.

Times are reported at a reference machine speed.  Between operations (at
most every CAL_EVERY_S of operation time) and before each cold start the
run times a fixed calibration unit of interpreter and small-matrix work;
the time between two units, and each cold start, is scaled by CAL_REF_S
over the unit time measured around it.  On a shared machine this removes
most of the drift in CPU speed from run to run; the raw times are printed
beside the result.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it first times one untraced batch, then traced batches:
spans around every layer call plus the layer probes of workloads.py, and
reports the per-layer metrics, among them the tracing overhead (traced over
untraced operation time).  Human-readable lines come first; the last line
of standard output is the result as one JSON object.
"""

import os

# Pin BLAS before numpy is imported, here and in the cold-start children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD_STARTS = 9
COLD_START_TIMEOUT_S = 60
CAL_REF_S = 5e-4  # calibration unit time that defines the reference speed
CAL_EVERY_S = 0.05
CAL_SAMPLES_PER_COLD_START = 5

_CAL_MATRIX = np.eye(24, dtype=complex) * (1 + 1j)

_COLD_START = """
import contextlib, io, json, time
t0 = time.perf_counter()
import cfcomm
from cfcomm import cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["run", "--k", "1", "--bob", "block"])
t2 = time.perf_counter()
ok = code == 0 and json.loads(out.getvalue())["K"] == 1
print(json.dumps({"ok": ok, "import_s": t1 - t0, "first_op_s": t2 - t1}))
"""


def _calibration_unit() -> float:
    """Time one fixed unit of interpreter, dict and small-matrix work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(3000):
        acc += i * i
        table[i & 255] = (i, acc)
    for _ in range(20):
        _CAL_MATRIX @ _CAL_MATRIX
    return time.perf_counter() - start


def _cold_starts() -> list[dict]:
    """Each cold start's times, scaled by calibration units run just before it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for _ in range(20):  # the first units run cold
        _calibration_unit()
    runs = []
    for _ in range(COLD_STARTS):
        scale = CAL_REF_S / statistics.median(_calibration_unit() for _ in range(CAL_SAMPLES_PER_COLD_START))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        runs.append({
            "ok": child["ok"],
            "scale": scale,
            "raw_s": wall,
            "setup_s": wall * scale,
            "setup.import_s": child["import_s"] * scale,
            "setup.first_op_s": child["first_op_s"] * scale,
        })
    return runs


def _environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
        "seed": seed,
    }


def _blas_threads() -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return f"unqueried (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


class Tally:
    """Checked operations: every output is checked, failures are counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def execute(self, op, tracer) -> float:
        """Run one operation, check its output, return its latency."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.call(tracer)
            latency = time.perf_counter() - start
            ok = op.check(out)
        except Exception:  # a failing operation is counted, the run goes on
            latency = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += not ok
        return latency


def _batch(ops, tally, tracer) -> tuple[float, list[float], float]:
    """One pass over ``ops``: (wall, latencies) at reference speed, and the scale.

    The pass is cut into segments of about CAL_EVERY_S of operation time,
    with a calibration unit between segments; each segment is scaled by the
    mean of the units on either side.  With a recording tracer each
    operation gets an ``op`` span and its probe runs after it, in a
    ``probe`` span.
    """
    wall, latencies, scales = 0.0, [], []
    segment, since = [], 0.0
    before = _calibration_unit()
    segment_start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer.on:
            tracer.op = index
        with tracer.span("op"):
            segment.append(tally.execute(op, tracer))
        since += segment[-1]
        if tracer.on:
            with tracer.span("probe"):
                op.probe(tracer)
        if since >= CAL_EVERY_S or index == len(ops) - 1:
            segment_wall = time.perf_counter() - segment_start
            after = _calibration_unit()
            scale = 2 * CAL_REF_S / (before + after)
            wall += segment_wall * scale
            latencies.extend(latency * scale for latency in segment)
            scales.append(scale)
            segment, since, before = [], 0.0, after
            segment_start = time.perf_counter()
    return wall, latencies, statistics.median(scales)


def _traced_batch(ops, tally, seed, workloads, tracer) -> dict:
    """One traced batch and the floor probe; its per-layer metrics."""
    _, latencies, scale = _batch(ops, tally, tracer)
    tracer.op = "floor"
    with tracer.span("probe"):
        workloads.floor_probe(tracer, seed)
    out = {name: value * scale if name.endswith("_s") else value for name, value in tracer.totals().items()}
    out["cli.self_s"] = out["cli.main_s"] - out["protocol.sweep_s"]
    out["histories.useful_ratio"] = out["histories.useful"] / out["histories.paths"]
    out["op_s"] = sum(latencies)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "cfcomm" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from a cfcomm checkout; {SRC / 'cfcomm'} or {spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cold = _cold_starts()
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()

    smallest = sorted({op.size for op in ops})[:2]
    _batch([op for op in ops if op.size in smallest], tally, spans.NULL)

    start = time.perf_counter()
    walls, p50s, p90s, scales, traced = [], [], [], [], []
    while True:
        batch_start = time.perf_counter()
        if args.trace and walls:
            traced.append(_traced_batch(ops, tally, args.seed, workloads, spans.Tracer()))
        else:
            wall, batch_latencies, scale = _batch(ops, tally, spans.NULL)
            walls.append(wall)
            untraced_op_s = sum(batch_latencies)
            p50s.append(statistics.median(batch_latencies))
            p90s.append(statistics.quantiles(batch_latencies, n=10, method="inclusive")[8])
            scales.append(scale)
        elapsed = time.perf_counter() - batch_start
        if time.perf_counter() + elapsed > start + args.seconds and (traced or not args.trace):
            break

    setup = {name: statistics.median(c[name] for c in cold) for name in ("setup_s", "setup.import_s", "setup.first_op_s")}
    if args.trace:
        for batch in traced:
            batch.update(setup, **{"trace.overhead_ratio": batch["op_s"] / untraced_op_s})
        # counts are the same in every batch; median_low keeps them integers
        pick = {int: statistics.median_low, float: statistics.median}
        values = {m["name"]: pick[type(traced[0][m["name"]])]([b[m["name"]] for b in traced]) for m in wanted}
        samples = f"{len(traced)} traced batches after 1 untraced batch"
    else:
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(p50s),
            "op_p90_s": statistics.median(p90s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = f"{len(walls)} batches of {len(ops)} ops"

    correct = tally.failed == 0 and all(c["ok"] for c in cold)
    print("environment " + json.dumps(_environment(args.seed)))
    print(f"workload {args.workload}: {samples}, {COLD_STARTS} cold starts")
    print(
        f"speed scale (reference / measured): batches {statistics.median(scales):.3f}, "
        f"cold starts {statistics.median(c['scale'] for c in cold):.3f}; "
        f"raw cold start {statistics.median(c['raw_s'] for c in cold):.4f} s, "
        f"raw batch wall {statistics.median(walls) / statistics.median(scales):.4f} s"
    )
    for m in wanted:
        print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<28} {tally.failed / tally.attempted:>14.6g} failed/attempted")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
