"""offerlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; offerlab is imported from its ``src/``.
Each invocation is one fresh process running one workload, so set-up time
and peak memory belong to that workload.  The workload's set-up and chain
are repeated until the next repeat would end after ``--seconds`` (at least
twice); each timing is the median over the repeats, and the chain time is
rescaled to the host's uncontended speed by the probe in ``probe.py``.  The
artifacts of the first repeat pass the correctness gate, and every later
repeat must write byte-identical artifacts.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the repeats alternate untraced and traced, and the
metrics are the per-layer ones, medians over the traced repeats; the spans
are written to ``perfbench/.work/``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's settings and details.
"""

import os
import sys

# One BLAS thread for every run, set before numpy is first imported: with
# the default thread count the optimize stage swings by a third between
# runs on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from gate import read_outputs, run_gate  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORK = HERE / ".work"
MIN_REPEATS = 2  # the determinism check needs a second repeat
MAX_REPEATS = 50
IMPORT_SAMPLES = 3


def load_program() -> None:
    """Put this checkout's ``src/`` first on the path and import offerlab."""
    if not (SRC / "offerlab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no offerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import offerlab.cli  # noqa: F401


def import_seconds() -> float:
    """Median time of a fresh import of offerlab.cli (and numpy), each in a
    new interpreter."""
    code = "import time; t = time.perf_counter(); import offerlab.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


@dataclass
class Repeat:
    """Timings, outcome counts and artifact hashes of one pass of a workload."""

    setup_s: float = 0.0
    wall_s: float = 0.0  # the chain's wall time
    pipeline_s: float = 0.0  # the same at the probe's reference speed
    probe_s: float = 0.0  # median time of the probe kernel during the chain
    stage_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    hashes: dict = field(default_factory=dict)  # manifest name -> artifact hashes


def _run_stage(stage, config, tracer, repeat: Repeat) -> None:
    from offerlab.cli import run_pipeline

    repeat.attempted += 1
    span = tracer.open(f"cli.{stage}")
    try:
        run_pipeline(stage, config)
    except Exception as exc:  # noqa: BLE001 -- a failed stage is counted; the run goes on
        repeat.failed += 1
        print(f"stage {stage} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        tracer.close(span)


def run_repeat(workload, seed: int, out: Path, tracer) -> Repeat:
    repeat = Repeat()
    shutil.rmtree(out, ignore_errors=True)
    import_s = import_seconds()
    start = time.perf_counter()
    config = workload.pipeline_config(seed, str(out))
    for stage in workload.setup_stages:
        _run_stage(stage, config, tracer, repeat)
    repeat.setup_s = import_s + time.perf_counter() - start
    with SpeedProbe() as probe:
        chain_start = time.perf_counter()
        for stage in workload.stages:
            start = time.perf_counter()
            _run_stage(stage, config, tracer, repeat)
            repeat.stage_s[stage] = time.perf_counter() - start
        chain_end = time.perf_counter()
    repeat.wall_s, repeat.pipeline_s = probe.rescale(chain_start, chain_end)
    repeat.probe_s = statistics.median(k for *_, k in probe.samples) if probe.samples else 0.0
    for manifest in sorted(out.glob("manifest-*.json")):
        repeat.hashes[manifest.name] = json.loads(manifest.read_text())["artifacts"]
    return repeat


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for about ``seconds``; returns the run's detail and
    its result object."""
    out = WORK / f"{workload.name}-{os.getpid()}"
    repeats: list[Repeat] = []  # every repeat, in order
    plain: list[Repeat] = []
    traced: list[tuple[Repeat, Tracer]] = []
    gate, results = [], {}
    failed = 0
    loop_start = time.perf_counter()
    last_wall = 0.0
    while len(repeats) < MAX_REPEATS and (
        len(repeats) < MIN_REPEATS or time.perf_counter() - loop_start + last_wall <= seconds
    ):
        began = time.perf_counter()
        tracer = Tracer()
        tracing = trace and len(repeats) % 2 == 1
        if tracing:
            tracer.install()
        try:
            repeat = run_repeat(workload, seed, out, tracer)
        finally:
            tracer.uninstall()
        if tracing:
            traced.append((repeat, tracer))
        else:
            plain.append(repeat)
        if not repeats:
            config = workload.pipeline_config(seed, str(out))
            gate = run_gate(out, config, workload.stages, workload.auc_floors)
            try:
                results = read_outputs(out)
            except Exception as exc:  # noqa: BLE001 -- counted as a failure
                failed += 1
                print(f"outputs unreadable: {type(exc).__name__}: {exc}", file=sys.stderr)
        repeats.append(repeat)
        last_wall = time.perf_counter() - began
    shutil.rmtree(out, ignore_errors=True)

    first = repeats[0]
    # stage calls, gate checks, reading the outputs, and one hash comparison
    # per later repeat
    attempted = sum(r.attempted for r in repeats) + len(gate) + 1 + len(repeats) - 1
    failed += sum(r.failed for r in repeats) + sum(not ok for _, ok, _ in gate)
    failed += sum(not r.hashes or r.hashes != first.hashes for r in repeats[1:])
    median = statistics.median

    if trace:
        layers = [layer_metrics(t.spans) for _, t in traced]
        values = {name: median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = median(r.pipeline_s for r, _ in traced) - median(
            r.pipeline_s for r in plain
        )
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / f"trace-{workload.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for index, (_, tracer) in enumerate(traced):
                tracer.write(fh, repeat=index)
    else:
        values = {
            "setup_s": median(r.setup_s for r in repeats),
            "pipeline_s": median(r.pipeline_s for r in repeats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update(results)
    kind = "per_layer" if trace else "end_to_end"
    # a value missing because its artifact could not be read is already
    # counted as a failure
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in SPEC[kind]}

    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "repeats": len(repeats),
        "pipeline_s": [r.pipeline_s for r in repeats],
        "wall_s": [r.wall_s for r in repeats],
        "probe_s": [r.probe_s for r in repeats],
        "stage_s_median": {s: median(r.stage_s[s] for r in repeats) for s in workload.stages},
        "gate": [{"check": name, "passed": ok, "detail": text} for name, ok, text in gate],
        "deterministic": all(r.hashes == first.hashes for r in repeats[1:]),
    }
    return {"detail": detail, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run["detail"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
