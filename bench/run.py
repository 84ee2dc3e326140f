"""Benchmark of the skewinfo verification harnesses.

Run from the root of a checkout (the directory holding ``src/skewinfo``):

    python3 bench/run.py --workload claim1_3x2 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics of one workload:
a closed loop of harness calls through the public API, one call at a
time, each with a process pool of one worker per CPU. With ``--trace 1``
it makes a separate traced run in one process and reports per-layer
metrics. Either way it checks every trial record, prints diagnostics,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. It exits 1 when a check fails and 2 when the package is
missing. See ``bench/NOTES.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "skewinfo-bench"

# Seed reserved for confirming a claimed gain; do not tune changes on it.
HELD_OUT_SEED = 9173
SETUP_REPEATS = 9
# End-to-end calls whose records fix the digest and the quality metric.
REFERENCE_CALLS = 8

# Per workload: harness, its arguments, trials per end-to-end call,
# single-trial calls per traced pass, and the per-trial bound ratio,
# oriented so that a better search lowers it. In claim1 the lhs is a
# minimized upper bound (lhs / rhs); in claim2 and avg the lhs is a
# maximized lower bound (rhs / lhs).
WORKLOADS = {
    "claim1_3x2": {
        "harness": "verify_claim1",
        "kwargs": {"n_a": 3, "n_b": 2, "kraus_count": 3},
        "batch": 64,
        "trace_batch": 24,
        "bound_ratio": lambda r: r.lhs / r.rhs,
    },
    "claim2_argmin_2x2": {
        "harness": "verify_claim2",
        "kwargs": {"n_a": 2, "n_b": 2, "mode": "argmin_K"},
        "batch": 32,
        "trace_batch": 12,
        "bound_ratio": lambda r: r.rhs / r.lhs,
    },
    "avg_3x3": {
        "harness": "verify_avg_bound",
        "kwargs": {"n_a": 3, "n_b": 3, "bases_per_trial": 20},
        "batch": 192,
        "trace_batch": 64,
        "bound_ratio": lambda r: r.rhs / r.lhs,
    },
}

TRACE_OFFSET = 500_000
WARMUP_INDEX = 999_999


def master_seed(seed: int, index: int) -> int:
    """Master seed of harness call ``index`` in a run with ``seed``."""
    return seed * 1_000_000 + index


def fail(msg: str, code: int) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_package():
    if not (SRC / "skewinfo" / "__init__.py").is_file():
        fail(f"no src/skewinfo under {ROOT}; run from the root of a skewinfo checkout", 2)
    sys.path.insert(0, str(SRC))
    import skewinfo

    if Path(skewinfo.__file__).resolve().parent != (SRC / "skewinfo").resolve():
        fail(f"imported skewinfo from {skewinfo.__file__}, not from {SRC}", 2)
    return skewinfo


def env_info(skewinfo) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict mode; the name is informative only
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "skewinfo": getattr(skewinfo, "__version__", "unknown"),
    }


def import_seconds() -> float:
    """Seconds to import skewinfo in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import skewinfo; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if out.returncode != 0:
        fail(f"import skewinfo failed:\n{out.stderr}", 1)
    return float(out.stdout.strip().splitlines()[-1])


def check_records(report, records, trials: int) -> tuple[int, list[str]]:
    """Return (failed trials, correctness errors) for one harness call.

    A record is wrong when it is flagged violated or when its margin is
    not exactly rhs - lhs; a failed trial carries NaN values."""
    errors = []
    if [r.trial_index for r in records] != list(range(trials)):
        errors.append(f"trial indices {[r.trial_index for r in records][:5]}... not 0..{trials - 1}")
    failed = 0
    for r in records:
        if math.isnan(r.margin):
            failed += 1
            continue
        if r.violated:
            errors.append(f"trial {r.trial_index} of seed {r.seed_tuple}: violated, margin {r.margin!r}")
        if r.margin != r.rhs - r.lhs:
            errors.append(f"trial {r.trial_index} of seed {r.seed_tuple}: margin {r.margin!r} != rhs - lhs")
    if report.violations:
        errors.append(f"report counts {report.violations} violations")
    if report.failed != failed:
        errors.append(f"report counts {report.failed} failures, records show {failed}")
    return failed, errors


def records_digest(records) -> str:
    """SHA-256 of the records' computed fields, wall_time_ms excluded."""
    h = hashlib.sha256()
    for r in records:
        h.update(
            repr(
                (r.trial_index, tuple(r.seed_tuple), tuple(r.dims), r.claim_id,
                 float(r.lhs).hex(), float(r.rhs).hex(), float(r.margin).hex(), bool(r.violated))
            ).encode()
        )
    return h.hexdigest()


def run_end_to_end(skewinfo, spec: dict, seed: int, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    harness = getattr(skewinfo, spec["harness"])
    kwargs, batch = spec["kwargs"], spec["batch"]
    workers = len(os.sched_getaffinity(0))

    import_seconds()  # writes the bytecode caches of a fresh checkout
    harness(trials=2, master_seed=master_seed(seed, WARMUP_INDEX), workers=1, **kwargs)

    rates, trial_ms, reference, errors, setup = [], [], [], [], []
    attempted = failed = calls = 0
    deadline = perf_counter() + seconds
    while calls < REFERENCE_CALLS or perf_counter() < deadline:
        start = perf_counter()
        report, records = harness(
            trials=batch, master_seed=master_seed(seed, calls), workers=workers, collect_timing=True, **kwargs
        )
        wall = perf_counter() - start
        call_failed, call_errors = check_records(report, records, batch)
        errors += call_errors
        attempted += batch
        failed += call_failed
        rates.append((batch - call_failed) / wall)
        trial_ms += [r.wall_time_ms for r in records]
        if calls < REFERENCE_CALLS:
            reference += records
        calls += 1
        # Imports are spread over the run, between calls, so that their
        # median sees the same machine as the calls do.
        if len(setup) < SETUP_REPEATS:
            setup.append(import_seconds())
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())

    ok_reference = [r for r in reference if not math.isnan(r.margin)]
    metrics = {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "trial_ms_p90": (statistics.quantiles(trial_ms, n=10, method="inclusive")[8], "ms"),
        "completed_frac": ((attempted - failed) / attempted, "ratio"),
        "bound_ratio_p50": (statistics.median(spec["bound_ratio"](r) for r in ok_reference), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {
        "workers": workers,
        "calls": calls,
        "trials_per_call": batch,
        "trial_ms_samples": len(trial_ms),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_mean": statistics.fmean(trial_ms),
        "reference_trials": len(reference),
        "records_sha256": records_digest(reference),
        "margin_p50": statistics.median(r.margin for r in ok_reference),
        "setup_repeats": SETUP_REPEATS,
    }
    return metrics, info, attempted, failed, errors


def layer_metrics(stats: dict, tracer: tracing.Tracer, trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass: counts per trial, times per call."""

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def per_call(name, scale, key="ns"):
        return stats[name][key] / calls(name) / scale if calls(name) else 0.0

    evals = sum(s["calls"] for name, s in stats.items() if name.endswith(".objective"))
    searches = calls(tracing.SEARCH_SPAN)
    restarts = sum(s[1] for s in tracer.searches)
    return {
        "optim.objective_evals": evals / trials,
        "optim.restarts": restarts / trials,
        "optim.evals_per_restart": evals / restarts if restarts else 0.0,
        "optim.converged_frac": sum(s[2] for s in tracer.searches) / searches if searches else 0.0,
        "optim.unitary_exp.us": per_call("optim.unitary_exp", 1e3),
        "optim.antihermitian_from_params.us": per_call("optim.antihermitian_from_params", 1e3),
        "optim.search_self_ms": per_call(tracing.SEARCH_SPAN, 1e6, "self_ns"),
        "metrics.lqu.calls": calls("metrics.lqu") / trials,
        "metrics.lqu.ms": per_call("metrics.lqu", 1e6),
        "metrics.LocalSkewObjective.init_us": per_call("metrics.LocalSkewObjective.init", 1e3),
        "metrics.LocalSkewObjective.skew.us": per_call("metrics.LocalSkewObjective.skew", 1e3),
        "metrics.skew_information.calls": calls("metrics.skew_information") / trials,
        "metrics.q_total.calls": calls("metrics.q_total") / trials,
        "metrics.q_total.us": per_call("metrics.q_total", 1e3),
        "metrics.q_local.us": per_call("metrics.q_local", 1e3),
        "steering.steer.us": per_call("steering.steer", 1e3),
        "steering.steered_q_sum.us": per_call("steering.steered_q_sum", 1e3),
        "steering.steering_induced_skew.ms": per_call("steering.steering_induced_skew", 1e6),
        "steering.objective.us": per_call("steering.objective", 1e3),
        "linalg.sqrtm_psd.calls": calls("linalg.sqrtm_psd") / trials,
        "linalg.sqrtm_psd.us": per_call("linalg.sqrtm_psd", 1e3),
        "rand.ginibre_state.us": per_call("rand.ginibre_state", 1e3),
        "rand.haar_unitary.calls": calls("rand.haar_unitary") / trials,
        "rand.haar_unitary.us": per_call("rand.haar_unitary", 1e3),
        "rand.commuting_kraus_channel.us": per_call("rand.commuting_kraus_channel", 1e3),
        "states.apply_channel.us": per_call("states.apply_channel", 1e3),
        "states.gell_mann_basis.calls": calls("states.gell_mann_basis") / trials,
        "states.gell_mann_basis.us": per_call("states.gell_mann_basis", 1e3),
    }


# Counts that do not depend on the hardware; they must repeat exactly.
COUNTERS = ("optim.objective_evals", "optim.restarts", "linalg.sqrtm_psd.calls")


def counters_by_trial(tracer: tracing.Tracer, trials: int) -> dict[str, list[int]]:
    out = {name: [0] * trials for name in COUNTERS}
    for trial, restarts, _ in tracer.searches:
        out["optim.restarts"][trial] += restarts
    for name, trial in zip(tracer.names, tracer.trial_of):
        if name.endswith(".objective"):
            out["optim.objective_evals"][trial] += 1
        elif name == "linalg.sqrtm_psd":
            out["linalg.sqrtm_psd.calls"][trial] += 1
    return out


def run_traced(skewinfo, spec: dict, seed: int, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    """Repeat passes over a fixed set of single-trial harness calls in this
    process until the time is up. Each trial runs untraced and then traced,
    back to back, so the tracing overhead is a per-trial ratio that machine
    noise mostly cancels out of. Each pass ends with one untraced pool call
    for the ``verify.*`` metrics. Times are medians over passes."""
    harness = getattr(skewinfo, spec["harness"])
    kwargs, batch, n = spec["kwargs"], spec["batch"], spec["trace_batch"]
    workers = len(os.sched_getaffinity(0))
    masters = [master_seed(seed, TRACE_OFFSET + t) for t in range(n)]
    root_name = f"verify.{spec['harness']}"

    errors: list[str] = []
    attempted = failed = 0

    def call(fn, trials: int, ms: int, n_workers: int) -> list:
        nonlocal attempted, failed
        report, records = fn(trials=trials, master_seed=ms, workers=n_workers, collect_timing=True, **kwargs)
        call_failed, call_errors = check_records(report, records, trials)
        errors.extend(call_errors)
        attempted += trials
        failed += call_failed
        return records

    harness(trials=2, master_seed=master_seed(seed, WARMUP_INDEX), workers=1, **kwargs)
    untraced_ms, traced_ms, ratios, digests, passes = [], [], [], set(), []
    pool_eff, pool_overhead = [], []
    first_tracer = first_counts = None
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        tracer = tracing.Tracer()
        traced_harness = tracer.span(root_name, harness)
        untraced, traced = [], []
        for t, ms in enumerate(masters):
            untraced += call(harness, 1, ms, 1)
            tracer.trial = t
            with tracing.Patched(tracer):
                traced += call(traced_harness, 1, ms, 1)
        untraced_ms += [r.wall_time_ms for r in untraced]
        traced_ms += [r.wall_time_ms for r in traced]
        ratios += [v.wall_time_ms / u.wall_time_ms for u, v in zip(untraced, traced)]
        digests |= {records_digest(untraced), records_digest(traced)}

        passes.append(layer_metrics(tracing.aggregate(tracer), tracer, n))
        counts = (counters_by_trial(tracer, n), [s[2] for s in tracer.searches])
        if first_counts is None:
            first_tracer, first_counts = tracer, counts
        elif counts != first_counts:
            errors.append("hardware-independent counters differ between traced passes")

        start = perf_counter()
        records = call(harness, batch, master_seed(seed, 0), workers)
        wall_ms = (perf_counter() - start) * 1e3
        busy_ms = sum(r.wall_time_ms for r in records)
        pool_eff.append(busy_ms / (wall_ms * workers))
        pool_overhead.append(wall_ms - busy_ms / workers)

    if len(digests) != 1:
        errors.append("traced and untraced calls computed different records")

    # Counts are identical in every pass (checked above); times vary.
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["verify.parallel_eff"] = statistics.median(pool_eff)
    metrics["verify.overhead_ms"] = statistics.median(pool_overhead)
    metrics["trace.trial_ms_p50"] = statistics.median(traced_ms)
    metrics["trace.untraced_trial_ms_p50"] = statistics.median(untraced_ms)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    span_file = OUT_DIR / f"spans-{spec['harness']}-seed{seed}.json"
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trial"], "spans": first_tracer.spans}, fh)

    info = {
        "workers_pool": workers,
        "passes": len(passes),
        "trials_per_pass": n,
        "trial_ms_samples": len(traced_ms),
        "records_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "counters_sha256": hashlib.sha256(json.dumps(first_counts).encode()).hexdigest(),
        "counters_by_trial": first_counts[0],
        "spans_written": len(first_tracer.names),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return {name: (value, _unit(name)) for name, value in metrics.items()}, info, attempted, failed, errors


def _unit(name: str) -> str:
    if name.endswith("us"):
        return "us"
    if name.endswith("ms") or "_ms_" in name:
        return "ms"
    if name.endswith((".calls", ".objective_evals", ".restarts")):
        return "1/trial"
    if name.endswith("per_restart"):
        return "1/restart"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    skewinfo = load_package()
    spec = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_end_to_end
    metrics, info, attempted, failed, errors = run(skewinfo, spec, args.seed, args.seconds)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "env": env_info(skewinfo),
        **info,
        "errors": errors[:20],
    }
    print(json.dumps(detail))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
