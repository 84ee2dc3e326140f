"""Monte Carlo harnesses for the channel and steering bounds.

Each harness samples independent trials keyed by (master_seed,
trial_index), checks one inequality per trial, and aggregates a
deterministic report: identical seed and configuration produce
byte-identical output regardless of worker count. The trials run in
chunks: each trial draws its Gaussian blocks from its own stream, and
then all of the chunk's arithmetic, its checks and its unitary searches
run once on stacks over the trials. A trial's record does not depend on
the other trials of its chunk.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Literal, NamedTuple, get_args, get_type_hints

import numpy as np

from .errors import UsageError
from .linalg import kron
from .metrics import _lqu_qubit, _lqu_search, local_skew_forms, q_locals, skew_informations
from .optim import OptimizerOptions, restart_draws
from .rand import (
    commuting_kraus_from_gaussians,
    default_spectrum,
    ginibre_from_gaussians,
    haar_from_gaussians,
    streams,
)
from .states import (
    apply_kraus,
    check_spectrum,
    observable_matrices,
    require_observables,
    require_states,
    require_unitary,
)
from .steering import _maximize, _skew_objective, _steered_q

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

DEFAULT_VIOLATION_TOL = 1e-7
MONOTONICITY_TOL = 1e-8

# Harness-internal optimizer budget. The verified inequalities hold for
# any optimizer quality (the maximized sides are under-estimated and the
# seeded minimizations start from feasible points), so a small budget
# only loosens margins, never fabricates violations.
HARNESS_OPTS = OptimizerOptions(restarts=2, tol=1e-7, max_iters=150)

# Trials per chunk. The trials of a chunk are computed as one stack, which
# spreads NumPy's per-call overhead on small matrices over the whole chunk;
# a call of at most this many trials runs in-process as one stack.
_CHUNK_TRIALS = 128

# The warm pool, by worker count: at most one pool, started by the first
# call that needs one and reused by later calls with the same count. Calls
# from several threads take turns on it, so that none replaces or drops a
# pool that another is running on. The pool's modules (multiprocessing
# among them) are imported by the first pooled call, not with the package.
_POOL: dict[int, ProcessPoolExecutor] = {}
_POOL_LOCK = threading.Lock()

Claim2Mode = Literal["argmin_K", "random_K"]

# The configuration entries, besides trials and workers, that count
# something and so must be at least 1
_COUNTS = ("n_a", "n_b", "kraus_count", "bases_per_trial")


@dataclass
class TrialRecord:
    trial_index: int
    seed_tuple: tuple[int, int]
    dims: tuple[int, int]
    claim_id: str
    lhs: float
    rhs: float
    margin: float
    violated: bool
    wall_time_ms: float


@dataclass
class VerificationReport:
    claim_id: str
    trials: int
    violations: int
    failed: int
    min_margin: float
    config: dict[str, object]
    failures: list[tuple[int, str]] = field(default_factory=list)
    monotonicity_violations: int = 0


def worker_count() -> int:
    """Worker cap: UQ_THREADS when set, else the CPUs this process may run on."""
    env = os.environ.get("UQ_THREADS")
    if env is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise UsageError(f"UQ_THREADS must be a positive integer, got {env!r}")
    return n


def _failure(exc: Exception) -> tuple[float, float, bool, str]:
    return math.nan, math.nan, True, f"{type(exc).__name__}: {exc}"


def _attempt(body: Callable, params: tuple, master_seed: int, indices: tuple[int, ...]) -> tuple[list, list]:
    """Run the trials ``indices`` of a chunk body as one stack: each trial's
    ``(lhs, rhs, monotonicity_ok)`` and an equal share of the seconds the
    stack took. When the stack raises, each half of it runs again the same
    way, so only the halves that raise are split further, and only a trial
    that raises alone, as a stack of one, fails, with its own exception in
    place of its triple."""
    start = perf_counter()
    try:
        lhs, rhs, mono_ok = body(params, master_seed, indices)
    except Exception as exc:
        if len(indices) == 1:
            return [exc], [perf_counter() - start]
        half = len(indices) // 2
        (out_a, sec_a), (out_b, sec_b) = (
            _attempt(body, params, master_seed, part) for part in (indices[:half], indices[half:])
        )
        return out_a + out_b, sec_a + sec_b
    share = (perf_counter() - start) / len(indices)
    return [(float(a), float(b), bool(ok)) for a, b, ok in zip(lhs, rhs, mono_ok)], [share] * len(indices)


def _run_chunk(job: tuple) -> list[tuple[TrialRecord, bool, str | None]]:
    """Run one chunk of trials into records. A chunk body maps ``(params,
    master_seed, indices)`` to the stacks ``(lhs, rhs, monotonicity_ok)``
    of those trials. A trial that raises alone becomes a record with NaN
    sides and the error message. With timing on, each record carries an
    equal share of the wall time of the stack it ran clean in (the whole
    chunk, or a part of it after a bisection), or its own time when it
    failed alone."""
    claim_id, body, params, dims, tol, timing, master_seed, indices = job
    results = []
    for t, out, sec in zip(indices, *_attempt(body, params, master_seed, indices)):
        lhs, rhs, mono_ok, error = _failure(out) if isinstance(out, Exception) else (*out, None)
        margin = rhs - lhs
        record = TrialRecord(
            trial_index=t,
            seed_tuple=(master_seed, t),
            dims=dims,
            claim_id=claim_id,
            lhs=lhs,
            rhs=rhs,
            margin=margin,
            violated=margin < -tol,  # False for NaN
            wall_time_ms=sec * 1e3 if timing else 0.0,
        )
        results.append((record, mono_ok, error))
    return results


def _gaussians(master_seed: int, indices: tuple[int, ...], shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Each trial's standard Gaussian blocks of the given shapes, drawn in
    order from the trial's own stream ``stream(master_seed, t)``, each block
    stacked over the trials into ``(len(indices), *shape)``. One draw of
    all of a trial's values equals the successive draws of the blocks.

    The streams are one Philox of this call, re-keyed for each trial
    (``rand.streams``), and each trial's values are drawn straight into its
    row: row t is bit for bit ``stream(master_seed, t).standard_normal``."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty((len(indices), sum(sizes)))
    for row, gen in zip(flat, streams(master_seed, indices)):
        gen.standard_normal(out=row)
    blocks = np.split(flat, np.cumsum(sizes)[:-1], axis=1)
    return [block.reshape(len(indices), *shape) for block, shape in zip(blocks, shapes)]


def _warm_pool(n_workers: int) -> ProcessPoolExecutor:
    """The pool of ``n_workers`` processes, started when there is none for
    that count; a pool of another count is shut down first. Its workers
    stop at exit through the atexit hook of ``concurrent.futures``."""
    from concurrent.futures import ProcessPoolExecutor

    pool = _POOL.get(n_workers)
    if pool is None:
        _drop_pool()
        pool = _POOL[n_workers] = ProcessPoolExecutor(max_workers=n_workers)
    return pool


def _drop_pool() -> None:
    for pool in _POOL.values():
        pool.shutdown()
    _POOL.clear()


def _pooled_chunks(jobs: list[tuple], n_workers: int) -> list:
    """Run chunk jobs on the warm pool. A pool that broke while it sat idle
    (a worker died between calls) refuses the jobs before any of them runs,
    and is replaced; one that breaks while the jobs run is dropped, so the
    next call starts a fresh one, and this call raises ``BrokenProcessPool``."""
    from concurrent.futures.process import BrokenProcessPool

    with _POOL_LOCK:
        try:
            futures = [_warm_pool(n_workers).submit(_run_chunk, job) for job in jobs]
        except BrokenProcessPool:
            _drop_pool()
            futures = [_warm_pool(n_workers).submit(_run_chunk, job) for job in jobs]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool:
            _drop_pool()
            raise


def _run_trials(
    claim_id: str,
    body: Callable,
    params: tuple,
    config: dict[str, object],
    trials: int,
    workers: int | None,
    timing: bool,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Run ``trials`` trials of a module-level body (picklable for the pool)
    in chunks of at most ``_CHUNK_TRIALS`` and aggregate them into a report.
    Dimensions, seed and tolerance come from ``config``, which the report
    echoes. A trial's record does not depend on the chunk it ran in. The
    configuration is checked before any trial runs.

    A call larger than one chunk with more than one worker runs on the warm
    pool, which is started once per process and reused (see ``_warm_pool``).
    Its workers start once, with it (forked from this process on Linux), so
    they run the package as it was then: a function patched into a module
    afterwards never reaches them.
    """
    counts = {"workers": workers, "trials": trials, **{name: config[name] for name in _COUNTS if name in config}}
    for name, value in counts.items():
        if value is not None and value < 1:
            raise UsageError(f"{name} must be a positive integer, got {value!r}")
    dims = (config["n_a"], config["n_b"])
    tol, master_seed = config["violation_tol"], config["master_seed"]
    # margin < -nan is never true, so nothing would count as a violation;
    # a negative tol counts bounds that hold
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"tol must be finite and non-negative, got {tol!r}")
    n_workers = worker_count() if workers is None else workers
    # A call that fits in one chunk runs in-process: splitting it over a
    # pool costs more in smaller stacks and in passing them than it saves.
    in_process = n_workers == 1 or trials <= _CHUNK_TRIALS
    size = _CHUNK_TRIALS if in_process else min(_CHUNK_TRIALS, -(-trials // n_workers))
    jobs = [
        (claim_id, body, params, dims, tol, timing, master_seed, tuple(range(lo, min(lo + size, trials))))
        for lo in range(0, trials, size)
    ]
    chunks = [_run_chunk(job) for job in jobs] if in_process else _pooled_chunks(jobs, n_workers)
    results = [r for chunk in chunks for r in chunk]
    records = [r[0] for r in results]
    failures = [(r[0].trial_index, r[2]) for r in results if r[2] is not None]
    ok_margins = [r.margin for r in records if not math.isnan(r.margin)]
    report = VerificationReport(
        claim_id=claim_id,
        trials=len(records),
        violations=sum(r.violated for r in records),
        failed=len(failures),
        min_margin=min(ok_margins) if ok_margins else math.nan,
        config=config,
        failures=failures,
        monotonicity_violations=sum(1 for r in results if not r[1]),
    )
    return report, records


class _Claim1Draws(NamedTuple):
    """The sampled part of claim1 trials, stacked over the trials."""

    rho_a: np.ndarray
    tau_b: np.ndarray
    k_basis: np.ndarray
    kraus_ops: np.ndarray
    restart_bases: np.ndarray


def _claim1_sample(params: tuple, master_seed: int, indices: tuple[int, ...]) -> _Claim1Draws:
    """Per trial, what ``ginibre_state`` (for A, then for B),
    ``random_nondegenerate_observable``, ``commuting_kraus_channel`` and,
    on a larger side A, the LQU search's ``optim.restart_bases`` (K_A's
    eigenbasis first) draw from the trial's stream in turn, with their
    checks."""
    n_a, n_b, kraus_count, opts = params
    d = n_b * kraus_count
    draws = restart_draws(opts, 1) if n_a > 2 else 0
    shapes = [(2, n_a, n_a), (2, n_b, n_b), (2, n_a, n_a), (n_a, 2, d, d), (draws, 2, n_a, n_a)]
    g_a, g_b, g_k, g_channel, g_restarts = _gaussians(master_seed, indices, shapes)
    k_basis = require_unitary(haar_from_gaussians(g_k), "unitary eigenbasis")
    bases = k_basis[:, None]
    if draws:
        bases = np.concatenate([bases, haar_from_gaussians(g_restarts)], axis=1)
    return _Claim1Draws(
        require_states(ginibre_from_gaussians(g_a)),
        require_states(ginibre_from_gaussians(g_b)),
        k_basis,
        commuting_kraus_from_gaussians(k_basis, g_channel, n_b),
        bases,
    )


def _claim1_body(params: tuple, master_seed: int, indices: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    n_a, n_b, _, opts = params
    rho_a, tau_b, k_basis, kraus_ops, bases = _claim1_sample(params, master_seed, indices)
    lam = check_spectrum(default_spectrum(n_a))
    k_a = observable_matrices(k_basis, lam)
    evolved = require_states(apply_kraus(kraus_ops, require_states(kron(rho_a, tau_b))))

    rhs = skew_informations(rho_a, k_a)
    # sqrt(rho_A ⊗ tau_B) = sqrt(rho_A) ⊗ sqrt(tau_B), so I(sigma, K_A ⊗ I) = I(rho_A, K_A) = rhs
    k_full = require_observables(kron(k_a, np.eye(n_b)))
    mono_ok = skew_informations(evolved, k_full) <= rhs + MONOTONICITY_TOL

    forms = local_skew_forms(evolved, (n_a, n_b), "A")
    lhs = _lqu_qubit(forms, lam)[0] if n_a == 2 else _lqu_search(forms, lam, opts, bases)[0]
    return lhs, rhs, mono_ok


def verify_claim1(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 1000,
    kraus_count: int = 2,
    tol: float = DEFAULT_VIOLATION_TOL,
    opts: OptimizerOptions | None = None,
    master_seed: int = 42,
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the channel bound: local uncertainty created by a commuting-Kraus
    channel never exceeds the input system's skew information.

    Per trial, samples a product input, a random nondegenerate observable
    on A, and a random channel commuting with it; compares the local
    uncertainty of the output (exact on a qubit side A, else searched from
    the observable itself, a feasible point) against the input skew
    information. Also spot-checks the commuting-channel monotonicity of
    skew information per trial.
    """
    opts = opts or HARNESS_OPTS
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "kraus_count": kraus_count,
        "violation_tol": tol,
        "master_seed": master_seed,
        "opt_restarts": opts.restarts,
        "opt_tol": opts.tol,
        "opt_max_iters": opts.max_iters,
    }
    params = (n_a, n_b, kraus_count, opts)
    return _run_trials("claim1", _claim1_body, params, config, trials, workers, collect_timing)


def _claim2_body(params: tuple, master_seed: int, indices: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    # Per trial, the draws of ginibre_state; then in argmin_K mode the LQU
    # search's restart bases on a larger side B (none on a qubit B), or in
    # random_K mode the eigenbasis of random_nondegenerate_observable; then
    # the steering search's restart bases.
    n_a, n_b, mode, opts = params
    d = n_a * n_b
    if mode == "argmin_K":
        draws_b = restart_draws(opts, 0) if n_b > 2 else 0
    else:
        draws_b = 1
    shapes = [(2, d, d), (draws_b, 2, n_b, n_b), (restart_draws(opts, 0), 2, n_a, n_a)]
    g_rho, g_b, g_a = _gaussians(master_seed, indices, shapes)
    rho = require_states(ginibre_from_gaussians(g_rho))
    lam = check_spectrum(default_spectrum(n_b))
    if mode == "argmin_K":
        forms = local_skew_forms(rho, (n_a, n_b), "B")
        if n_b == 2:
            rhs, k_basis = _lqu_qubit(forms, lam)
        else:
            rhs, k_basis, _ = _lqu_search(forms, lam, opts, haar_from_gaussians(g_b))
        km = observable_matrices(k_basis, lam)
    else:
        km = observable_matrices(require_unitary(haar_from_gaussians(g_b[:, 0]), "unitary eigenbasis"), lam)
        rhs = skew_informations(rho, require_observables(kron(np.eye(n_a), km)))
    r4 = rho.reshape(-1, n_a, n_b, n_a, n_b)
    lhs, _, _ = _maximize(_skew_objective, (r4, km), opts, haar_from_gaussians(g_a))
    return lhs, rhs, np.ones(len(indices), dtype=bool)


def verify_claim2(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 500,
    tol: float = DEFAULT_VIOLATION_TOL,
    opts: OptimizerOptions | None = None,
    master_seed: int = 42,
    mode: Claim2Mode = "random_K",
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the steering bound: steering-induced skew information never
    exceeds the joint state's local uncertainty on B.

    In ``argmin_K`` mode the observable is the optimized local-uncertainty
    minimizer and the bound is the optimized value; in ``random_K`` mode a
    random observable is drawn and the bound is its joint skew information.
    """
    if mode not in get_args(Claim2Mode):
        raise UsageError(f"mode must be one of {', '.join(get_args(Claim2Mode))}, got {mode!r}")
    opts = opts or HARNESS_OPTS
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "mode": mode,
        "violation_tol": tol,
        "master_seed": master_seed,
        "opt_restarts": opts.restarts,
        "opt_tol": opts.tol,
        "opt_max_iters": opts.max_iters,
    }
    params = (n_a, n_b, mode, opts)
    return _run_trials("claim2", _claim2_body, params, config, trials, workers, collect_timing)


def _avg_body(params: tuple, master_seed: int, indices: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    # Per trial, the draws of ginibre_state and then of haar_unitaries.
    n_a, n_b, bases_per_trial = params
    shapes = [(2, n_a * n_b, n_a * n_b), (bases_per_trial, 2, n_a, n_a)]
    g_rho, g_bases = _gaussians(master_seed, indices, shapes)
    rho = require_states(ginibre_from_gaussians(g_rho))
    rhs = q_locals(rho, (n_a, n_b), "B")
    bases = require_unitary(haar_from_gaussians(g_bases), "orthonormal columns")
    lhs = _steered_q(rho.reshape(-1, n_a, n_b, n_a, n_b), bases).max(axis=-1)
    return lhs, rhs, np.ones(len(indices), dtype=bool)


def verify_avg_bound(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 500,
    bases_per_trial: int = 20,
    tol: float = DEFAULT_VIOLATION_TOL,
    master_seed: int = 42,
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the averaged bound: the basis-maximized steered total
    uncertainty of B never exceeds the joint state's local-observable
    information content on B. The maximum is taken over sampled bases."""
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "bases_per_trial": bases_per_trial,
        "violation_tol": tol,
        "master_seed": master_seed,
    }
    params = (n_a, n_b, bases_per_trial)
    return _run_trials("avg", _avg_body, params, config, trials, workers, collect_timing)


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _int_pair(cell: str) -> tuple[int, int]:
    a, b = cell.split(":")
    return int(a), int(b)


class _Codec(NamedTuple):
    """How one declared field type is written and read in each format:
    JSON text, CSV cell, and readers of what ``json.loads`` returns and of
    a CSV cell. Floats carry 17 significant digits; NaN is JSON null."""

    to_json: Callable[[Any], str]
    to_csv: Callable[[Any], str]
    from_json: Callable[[Any], Any]
    from_csv: Callable[[str], Any]


_CODECS = {
    int: _Codec("%d".__mod__, "%d".__mod__, int, int),
    str: _Codec('"%s"'.__mod__, str, str, str),
    bool: _Codec(_bool_text, _bool_text, bool, "true".__eq__),
    float: _Codec(
        lambda x: "null" if math.isnan(x) else _fmt_float(x),
        _fmt_float,
        lambda v: math.nan if v is None else float(v),
        float,
    ),
    tuple[int, int]: _Codec("[%d, %d]".__mod__, "%d:%d".__mod__, tuple, _int_pair),
}
_HINTS = get_type_hints(TrialRecord)
# The record schema: TrialRecord's fields in order, each with its codec.
_SCHEMA = tuple((f.name, _CODECS[_HINTS[f.name]]) for f in fields(TrialRecord))
RECORD_FIELDS = tuple(name for name, _ in _SCHEMA)


def summary_text(report: VerificationReport) -> str:
    """Flat key=value rendering of a report."""
    lines = [
        f"claim_id={report.claim_id}",
        f"trials={report.trials}",
        f"violations={report.violations}",
        f"failed={report.failed}",
        f"min_margin={_fmt_float(report.min_margin)}",
        f"monotonicity_violations={report.monotonicity_violations}",
    ]
    for key, value in report.config.items():
        lines.append(f"config.{key}={value!r}" if isinstance(value, float) else f"config.{key}={value}")
    lines.append("failures=" + ";".join(f"{i}:{msg}" for i, msg in report.failures))
    return "\n".join(lines) + "\n"


def write_report(
    report: VerificationReport,
    records: list[TrialRecord],
    path: str,
    fmt: Literal["json-lines", "csv"] = "json-lines",
) -> None:
    """Write per-trial records to ``path`` and a key=value summary to
    ``path + '.summary'``. Floats carry 17 significant digits, so records
    round-trip exactly through :func:`read_records`."""
    if fmt == "csv":
        rows = [RECORD_FIELDS] + [[c.to_csv(getattr(r, n)) for n, c in _SCHEMA] for r in records]
        body = "".join(",".join(row) + "\n" for row in rows)
    elif fmt == "json-lines":
        body = "".join(
            "{" + ", ".join(f'"{n}": {c.to_json(getattr(r, n))}' for n, c in _SCHEMA) + "}\n" for r in records
        )
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
    with open(path + ".summary", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_text(report))


def read_records(path: str, fmt: Literal["json-lines", "csv"] = "json-lines") -> list[TrialRecord]:
    """Parse a records file written by :func:`write_report`; every field
    reads back as its declared type."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if fmt == "csv":
        rows = [dict(zip(RECORD_FIELDS, ln.split(","))) for ln in lines[1:]]
        return [TrialRecord(**{n: c.from_csv(row[n]) for n, c in _SCHEMA}) for row in rows]
    if fmt == "json-lines":
        rows = [json.loads(ln) for ln in lines]
        return [TrialRecord(**{n: c.from_json(row[n]) for n, c in _SCHEMA}) for row in rows]
    raise ValueError(f"unknown format {fmt!r}")
