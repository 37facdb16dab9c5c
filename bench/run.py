"""Refinement-study benchmark of the mddg solver.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload cd_gmres --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of the checkout (nothing to build).
One run is one fresh process for one workload (see ``workloads.py``):

* It first times ``setup_s`` (fresh interpreter until ``import mddg`` and
  ``method_registry()`` return) over SETUP_REPEATS child processes.
* It then repeats the workload's refinement studies through
  ``mddg.harness.run_convergence`` for ``--seconds`` seconds.  Each repeat
  is one pass over all studies, in an order shuffled by ``--seed``.  A new
  pass starts only while the median pass still fits in the remaining time,
  and at least one pass always runs.
* Every study level is gated (``workloads.gate_study``); a failing level
  counts as a failed operation and the run exits with status 1.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced passes (medians), the tracing overhead,
and checks that the traced run writes the same convergence CSV as the
untraced one and that span self times cover the traced wall time to
within COVERAGE_TOL.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment
stamp, every sample, per-level gate outcome, self-time table) goes to
``bench/out/<workload>-seed<seed>-trace<t>.json`` and the traced run's
spans to ``bench/out/<workload>-seed<seed>-spans.json``.

BLAS and OpenMP are pinned to one thread, so every run is the plain
single-threaded, single-process baseline of the same problem.

``--record-reference`` runs every workload once and rewrites the
per-level reference errors in ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_THREADS = "1"
for _var in THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = BENCH_THREADS

from spans import SPAN_FIELDS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, gate_study, study_key  # noqa: E402

SETUP_REPEATS = 5
COVERAGE_TOL = 0.05  # |unaccounted| / traced wall time
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mddg; "
    "from mddg.harness import method_registry; method_registry(); print('ready', flush=True)"
)

END_TO_END_UNITS = {
    "study_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "l2_error": "1",
    "order_min": "1",
}

PER_LAYER_UNITS = {
    "mesh.build_s": "s",
    "basis.eval_s": "s",
    "basis.eval_calls": "count",
    "operator.assemble_s": "s",
    "operator.source_s": "s",
    "operator.fields_s": "s",
    "timeint.integrate_self_s": "s",
    "timeint.workspace_s": "s",
    "timeint.block_build_s": "s",
    "timeint.step_s": "s",
    "timeint.step_self_s": "s",
    "timeint.steps": "count",
    "timeint.step_ms_p50": "ms",
    "timeint.step_ms_tail": "ms",
    "timeint.step_ms_tail_pct": "%",
    "timeint.step_ms_n": "count",
    "sparse.prepare_s": "s",
    "sparse.ilu_factor_s": "s",
    "sparse.ilu_apply_s": "s",
    "sparse.ilu_apply_calls": "count",
    "sparse.ilu_apply_ms": "ms",
    "sparse.ilu_apply_ms_tail": "ms",
    "sparse.ilu_apply_ms_tail_pct": "%",
    "sparse.ilu_apply_ms_n": "count",
    "sparse.gmres_s": "s",
    "sparse.gmres_self_s": "s",
    "sparse.gmres_iters": "count",
    "sparse.iters_per_solve": "count",
    "sparse.direct_s": "s",
    "sparse.matvec_s": "s",
    "sparse.matvec_calls": "count",
    "sparse.solves": "count",
    "sparse.fallbacks": "count",
    "sparse.fallback_share": "1",
    "sparse.max_residual": "1",
    "sparse.system_nnz": "count",
    "harness.unaccounted_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "%",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, bad reference file)."""


def import_program():
    """Import ``mddg`` from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "mddg" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"program source not found: {init}")
    sys.path.insert(0, str(SRC))
    import mddg
    import mddg.harness

    if Path(mddg.__file__).resolve() != init.resolve():
        raise BenchError(f"imported mddg from {mddg.__file__}, expected {init}")
    return mddg


def time_setup():
    """Seconds from spawning a fresh interpreter until mddg is ready in it."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup child failed with status {proc.returncode}")
    return elapsed


def git_commit():
    """Commit of the checkout from ``.git`` files, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mddg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp(args):
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "levels_cap": args.levels,
    }


def load_reference(path):
    try:
        data = json.loads(Path(path).read_text())
        return data["studies"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read reference errors from {path}: {exc}") from exc


def workload_studies(name, levels_cap):
    """(key, RunConfig kwargs, order check, full study) per study of a workload."""
    out = []
    for kwargs, check in WORKLOADS[name]["studies"]:
        kw = dict(kwargs)
        full = levels_cap is None or levels_cap >= kw["levels"]
        if not full:
            kw["levels"] = levels_cap
        out.append((study_key(kwargs), kw, check, full))
    return out


def run_pass(mddg, studies, tracer=None):
    """Run every study once; returns (summed study wall time, reports by key)."""
    wall = 0.0
    reports = {}
    for key, kwargs, _, _ in studies:
        cfg = mddg.harness.RunConfig(**kwargs)
        if tracer is not None:
            tracer.begin_study(key)
        t0 = perf_counter()
        reports[key] = mddg.harness.run_convergence(cfg)
        wall += perf_counter() - t0
    return wall, reports


def gate_pass(reports, studies, reference, no_fallbacks):
    """Per-level gate outcome of one pass: {key: [reason or '', ...]}."""
    out = {}
    for key, _, check, full in studies:
        ref = reference.get(key)
        if ref is None:
            raise BenchError(f"no reference errors for study {key}")
        out[key] = gate_study(reports[key], ref["errors"], check, no_fallbacks, full)
    return out


def csv_mismatch(mddg, traced, untraced):
    """Per-level reasons where a traced report's CSV differs from the untraced one."""
    a = mddg.harness.format_report(traced).splitlines()[1:]
    b = mddg.harness.format_report(untraced).splitlines()[1:]
    return ["" if x == y else "traced CSV row differs from untraced" for x, y in zip(a, b)]


def measure(args, mddg, studies, reference):
    """Repeat passes for ``args.seconds``.

    Returns (passes, per-layer metrics and self-time table per traced pass,
    spans per traced pass).
    """
    rng = random.Random(args.seed)
    no_fallbacks = WORKLOADS[args.workload]["no_fallbacks"]
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    tracer = Tracer() if args.trace else None
    passes = []
    first_untraced = None
    traced_layers = []
    span_dump = []
    t_start = perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        order = studies[:]
        rng.shuffle(order)
        t0 = perf_counter()
        if kind == "traced":
            tracer.install(mddg)
            try:
                wall, reports = run_pass(mddg, order, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
        else:
            wall, reports = run_pass(mddg, order)
        duration = perf_counter() - t0
        gate = gate_pass(reports, studies, reference, no_fallbacks)
        if kind == "untraced" and first_untraced is None:
            first_untraced = reports
        if kind == "traced":
            for key in gate:
                diff = csv_mismatch(mddg, reports[key], first_untraced[key])
                gate[key] = ["; ".join(r for r in pair if r) for pair in zip(gate[key], diff)]
            metrics, self_table = layer_metrics(spans, wall)
            traced_layers.append((metrics, self_table))
            span_dump.append({"pass": len(passes), "spans": spans})
        passes.append({
            "kind": kind,
            "order": [key for key, *_ in order],
            "wall_s": wall,
            "duration_s": duration,
            "gate": gate,
            "reports": reports,
        })
        elapsed = perf_counter() - t_start
        if len(passes) < len(kinds):
            continue
        next_kind = kinds[len(passes) % len(kinds)]
        estimate = statistics.median(p["duration_s"] for p in passes if p["kind"] == next_kind)
        if elapsed + estimate > args.seconds:
            break
    return passes, traced_layers, span_dump


def end_to_end(passes, setup_samples):
    untraced = [p for p in passes if p["kind"] == "untraced"]
    last = untraced[-1]["reports"]
    finest = [rep.errors[-1] for rep in last.values()]
    orders = [rep.final_order for rep in last.values()]
    geo = math.exp(sum(math.log(e) for e in finest) / len(finest)) if all(
        math.isfinite(e) and e > 0 for e in finest) else float("nan")
    return {
        "study_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "l2_error": geo,
        "order_min": min((o for o in orders if o is not None), default=float("nan")),
    }


def per_layer(passes, traced_layers):
    names = traced_layers[0][0]
    metrics = {name: statistics.median(m[name] for m, _ in traced_layers) for name in names}
    untraced = statistics.median(p["wall_s"] for p in passes if p["kind"] == "untraced")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics


def finite_or_none(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def record_reference(mddg, path):
    """Run every workload's studies once and write their per-level errors."""
    studies = {}
    for name in WORKLOADS:
        _, reports = run_pass(mddg, workload_studies(name, None))
        for key, rep in reports.items():
            studies[key] = {
                "errors": rep.errors,
                "final_order": rep.final_order,
                "max_residual": max(s.residual for lv in rep.solver_stats for s in lv),
            }
    data = {
        "note": "per-level finest-time L2 errors; gate tolerance is workloads.ERROR_RTOL",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "studies": studies,
    }
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--levels", type=int, default=None,
                        help="cap every study at this many levels (smoke runs)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference-error file the gate compares against")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference file from one pass of every workload")
    args = parser.parse_args(argv)
    if args.levels is not None and args.levels < 2:
        parser.error("--levels must be at least 2")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        mddg = import_program()
        if args.record_reference:
            record_reference(mddg, args.reference)
            return 0
        reference = load_reference(args.reference)
        studies = workload_studies(args.workload, args.levels)
        setup_samples = [] if args.trace else [time_setup() for _ in range(SETUP_REPEATS)]
        passes, traced_layers, span_dump = measure(args, mddg, studies, reference)
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(reasons) for p in passes for reasons in p["gate"].values())
    failures = [
        {"pass": i, "study": key, "level": level, "reason": reason}
        for i, p in enumerate(passes)
        for key, reasons in p["gate"].items()
        for level, reason in enumerate(reasons)
        if reason
    ]
    if args.trace:
        values = per_layer(passes, traced_layers)
        units = PER_LAYER_UNITS
        coverage_ok = abs(values["harness.unaccounted_s"]) <= COVERAGE_TOL * values["trace.wall_s"]
    else:
        values = end_to_end(passes, setup_samples)
        units = END_TO_END_UNITS
        coverage_ok = True
    correct = not failures and coverage_ok
    metrics = {name: {"value": finite_or_none(values[name]), "unit": units[name]} for name in units}

    record = {
        "environment": environment_stamp(args),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "coverage_ok": coverage_ok,
        "samples": {
            "passes": [
                {k: v for k, v in p.items() if k not in ("reports", "gate")} for p in passes
            ],
            "setup_s": setup_samples,
        },
        "studies": {
            key: {"errors": rep.errors, "final_order": rep.final_order}
            for key, rep in passes[0]["reports"].items()
        },
        "self_s": [table for _, table in traced_layers],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        dump = {"fields": list(SPAN_FIELDS), "passes": span_dump}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(dump) + "\n")

    untraced_walls = [p["wall_s"] for p in passes if p["kind"] == "untraced"]
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: untraced study wall "
        f"{', '.join(f'{w:.3f}' for w in untraced_walls)} s (median of "
        f"{len(untraced_walls)}), {len(passes) - len(untraced_walls)} traced passes, "
        f"{len(setup_samples)} setup samples; {attempted} levels, {len(failures)} failed"
    )
    for failure in failures[:20]:
        print(f"FAIL pass {failure['pass']} {failure['study']} level {failure['level']}: "
              f"{failure['reason']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
