"""Command-line frontend.

Subcommands: ``skew``, ``q``, ``lqu``, ``steer``, and ``verify
claim1|claim2|avg``. Exit status is 0 on success, 1 when a verification
finds violations (or an operation fails), and 2 on usage errors. Given
the same command line and seed, stdout and output files are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import verify as verify_mod
from .errors import ParseError, SkewInfoError, UsageError
from .metrics import lqu, q_local, q_total, skew_information, variance
from .optim import OptimizerOptions
from .rand import default_spectrum, haar_unitary, stream
from .states import (
    BipartiteState,
    DensityMatrix,
    NondegenerateObservable,
    check_spectrum,
)
from .steering import MeasurementBasis, steer


@dataclass
class RunConfig:
    command: str
    n_a: int = 2
    n_b: int = 2
    trials: int = 1000
    spectrum: list[float] | None = None  # None means the default spectrum
    restarts: int | None = None  # None means the subcommand's default budget
    mode: str = "random_K"  # claim2 only
    tol: float = 1e-7
    master_seed: int = 42
    kraus_count: int = 2
    bases_per_trial: int = 20
    out_path: str | None = None
    out_format: str = "json-lines"
    state_file: str | None = None
    basis_file: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}\nerror: {message}")


def _add_common(p: _Parser) -> None:
    p.add_argument("--dim-a", type=int, default=None, metavar="N")
    p.add_argument("--dim-b", type=int, default=None, metavar="N")
    p.add_argument("--trials", type=int, default=None, metavar="T")
    p.add_argument("--seed", type=int, default=42, metavar="SEED")
    p.add_argument("--spectrum", type=str, default=None, metavar="V1,V2,...")
    p.add_argument("--restarts", type=int, default=None, metavar="R")
    p.add_argument("--tol", type=float, default=None, metavar="TOL")
    p.add_argument("--kraus", type=int, default=None, metavar="J")
    p.add_argument("--bases", type=int, default=None, metavar="B")
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.add_argument("--format", type=str, default="json", choices=("json", "csv"))
    p.add_argument("--state-file", type=str, default=None, metavar="PATH")
    p.add_argument("--basis-file", type=str, default=None, metavar="PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="skewinfo", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in ("skew", "q", "lqu", "steer"):
        _add_common(subs.add_parser(name, help=f"compute {name} quantities"))
    pv = subs.add_parser("verify", help="run a randomized bound verification")
    pv.add_argument("claim", choices=("claim1", "claim2", "avg"))
    pv.add_argument("--mode", type=str, default=None, choices=("random_K", "argmin_K"))
    _add_common(pv)
    return parser


def _parse_spectrum(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse spectrum {text!r}: {exc}") from exc
    try:
        check_spectrum(np.array(values))
    except SkewInfoError as exc:
        raise UsageError(str(exc)) from exc
    return values


def _join_spectrum_value(argv: list[str]) -> list[str]:
    # '--spectrum -1,1' would be read as a flag by argparse; glue the value on
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--spectrum" and i + 1 < len(argv):
            out.append(f"--spectrum={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def parse_args(argv: list[str]) -> RunConfig:
    """Parse the command line, raising UsageError on any malformed input."""
    parser = build_parser()
    if not argv:
        raise UsageError(parser.format_help())
    ns = parser.parse_args(_join_spectrum_value(argv))
    command = ns.command if ns.command != "verify" else f"verify {ns.claim}"
    mode = getattr(ns, "mode", None)
    verifiers = ("verify claim1", "verify claim2", "verify avg")
    for flag, value, readers in (
        ("--mode", mode, ("verify claim2",)),
        ("--kraus", ns.kraus, ("verify claim1",)),
        ("--bases", ns.bases, ("verify avg",)),
        ("--spectrum", ns.spectrum, ("skew", "lqu")),
        ("--dim-a", ns.dim_a, verifiers),
        ("--dim-b", ns.dim_b, verifiers),
        ("--trials", ns.trials, verifiers),
        ("--tol", ns.tol, verifiers),
        ("--restarts", ns.restarts, ("lqu", "verify claim1", "verify claim2")),
        ("--basis-file", ns.basis_file, ("skew",)),
        ("--state-file", ns.state_file, ("skew", "q", "lqu", "steer")),
    ):
        if value is not None and command not in readers:
            names = f"{', '.join(readers[:-1])} and {readers[-1]}" if len(readers) > 1 else readers[0]
            raise UsageError(f"{flag} applies only to {names}, not {command}")
    spectrum = None if ns.spectrum is None else _parse_spectrum(ns.spectrum)
    config = RunConfig(
        command=command,
        n_a=RunConfig.n_a if ns.dim_a is None else ns.dim_a,
        n_b=RunConfig.n_b if ns.dim_b is None else ns.dim_b,
        trials=RunConfig.trials if ns.trials is None else ns.trials,
        spectrum=spectrum,
        restarts=ns.restarts,
        mode=mode or RunConfig.mode,
        tol=RunConfig.tol if ns.tol is None else ns.tol,
        master_seed=ns.seed,
        kraus_count=RunConfig.kraus_count if ns.kraus is None else ns.kraus,
        bases_per_trial=RunConfig.bases_per_trial if ns.bases is None else ns.bases,
        out_path=ns.out,
        out_format="csv" if ns.format == "csv" else "json-lines",
        state_file=ns.state_file,
        basis_file=ns.basis_file,
    )
    for name in ("n_a", "n_b", "trials", "restarts", "kraus_count", "bases_per_trial"):
        value = getattr(config, name)
        if value is not None and value < 1:
            raise UsageError(f"{name} must be positive")
    if config.tol <= 0:
        raise UsageError("tol must be positive")
    return config


def _parse_matrix_lines(path: str) -> tuple[tuple[int, int] | None, np.ndarray]:
    """Read the text matrix format: a 'dims: nA nB' or 'dim: n' header,
    then rows of whitespace-separated complex tokens like 0.5+0j."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].lower()
    if header.startswith("dims:"):
        parts = header[len("dims:") :].split()
        if len(parts) != 2:
            raise ParseError(f"{path}: expected 'dims: nA nB', got {lines[0]!r}")
        try:
            dims = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{path}: bad dims header {lines[0]!r}") from exc
        dim = dims[0] * dims[1]
    elif header.startswith("dim:"):
        try:
            dim = int(header[len("dim:") :].strip())
        except ValueError as exc:
            raise ParseError(f"{path}: bad dim header {lines[0]!r}") from exc
        dims = None
    else:
        raise ParseError(f"{path}: first line must be 'dims: nA nB' or 'dim: n'")
    rows = lines[1:]
    if len(rows) != dim:
        raise ParseError(f"{path}: expected {dim} matrix rows, found {len(rows)}")
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        tokens = row.split()
        if len(tokens) != dim:
            raise ParseError(f"{path}: row {i} has {len(tokens)} entries, expected {dim}")
        for j, tok in enumerate(tokens):
            try:
                matrix[i, j] = complex(tok)
            except ValueError as exc:
                raise ParseError(f"{path}: bad complex token {tok!r} at ({i},{j})") from exc
    if not np.all(np.isfinite(matrix.view(np.float64))):
        raise ParseError(f"{path}: non-finite entries")
    return dims, matrix


def load_state(path: str) -> DensityMatrix | BipartiteState:
    """Load a density matrix (or bipartite state when a 'dims:' header is
    present), validating all state invariants."""
    dims, matrix = _parse_matrix_lines(path)
    rho = DensityMatrix(matrix)
    if dims is None:
        return rho
    return BipartiteState(rho, dims[0], dims[1])


def load_basis_unitary(path: str) -> np.ndarray:
    """Load an eigenbasis file (same text format, 'dim: n' header)."""
    dims, matrix = _parse_matrix_lines(path)
    if dims is not None:
        raise ParseError(f"{path}: basis file must use a 'dim: n' header")
    return MeasurementBasis(matrix).unitary


def _require_state(config: RunConfig) -> DensityMatrix | BipartiteState:
    if config.state_file is None:
        raise UsageError(f"{config.command} requires --state-file")
    return load_state(config.state_file)


def _observable_for(config: RunConfig, dim: int) -> NondegenerateObservable:
    lam = np.array(config.spectrum) if config.spectrum is not None else default_spectrum(dim)
    if config.basis_file is not None:
        basis = load_basis_unitary(config.basis_file)
    else:
        basis = np.eye(dim, dtype=np.complex128)
    return NondegenerateObservable(lam, basis)


def _emit(lines: list[str], config: RunConfig) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.out_path is not None:
        with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_skew(config: RunConfig) -> int:
    state = _require_state(config)
    rho = state.state if isinstance(state, BipartiteState) else state
    obs = _observable_for(config, rho.dim)
    value = skew_information(rho, obs)
    var = variance(rho, obs)
    _emit(
        [
            f"skew information = {value:.6f}",
            f"variance = {var:.6f}",
            f"spectrum = {np.asarray(obs.spectrum).tolist()}",
        ],
        config,
    )
    return 0


def _run_q(config: RunConfig) -> int:
    state = _require_state(config)
    lines = []
    if isinstance(state, BipartiteState):
        lines.append(f"q_total = {q_total(state.state):.6f}")
        lines.append(f"q_local_A = {q_local(state, 'A'):.6f}")
        lines.append(f"q_local_B = {q_local(state, 'B'):.6f}")
    else:
        lines.append(f"q_total = {q_total(state):.6f}")
    _emit(lines, config)
    return 0


def _run_lqu(config: RunConfig) -> int:
    state = _require_state(config)
    if not isinstance(state, BipartiteState):
        raise UsageError("lqu requires a bipartite state file with a 'dims: nA nB' header")
    lam = np.array(config.spectrum) if config.spectrum is not None else default_spectrum(state.n_a)
    opts = OptimizerOptions() if config.restarts is None else OptimizerOptions(restarts=config.restarts)
    result = lqu(state, lam, "A", opts=opts, rng=stream(config.master_seed, 0))
    _emit(
        [
            f"lqu = {result.value:.6f}",
            f"spectrum = {np.asarray(lam).tolist()}",
            f"restarts_used = {result.restarts_used}",
            f"converged = {str(result.converged).lower()}",
        ],
        config,
    )
    return 0


def _run_steer(config: RunConfig) -> int:
    state = _require_state(config)
    if not isinstance(state, BipartiteState):
        raise UsageError("steer requires a bipartite state file with a 'dims: nA nB' header")
    basis = MeasurementBasis(haar_unitary(state.n_a, stream(config.master_seed, 0)))
    ensemble = steer(state, basis)
    lines = [f"outcomes = {len(ensemble.outcomes)}", f"skipped = {len(ensemble.skipped)}"]
    for idx, (p, rho_i) in enumerate(ensemble.outcomes):
        purity = np.trace(rho_i.matrix @ rho_i.matrix).real
        lines.append(f"outcome {idx}: p = {p:.6f}, purity = {purity:.6f}")
        for row in rho_i.matrix:
            lines.append("  " + " ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    _emit(lines, config)
    return 0


def _run_verify(config: RunConfig) -> int:
    claim = config.command.split()[1]
    opts = verify_mod.HARNESS_OPTS
    if config.restarts is not None:
        opts = replace(opts, restarts=config.restarts)
    if claim == "claim1":
        report, records = verify_mod.verify_claim1(
            n_a=config.n_a,
            n_b=config.n_b,
            trials=config.trials,
            kraus_count=config.kraus_count,
            tol=config.tol,
            opts=opts,
            master_seed=config.master_seed,
        )
    elif claim == "claim2":
        report, records = verify_mod.verify_claim2(
            n_a=config.n_a,
            n_b=config.n_b,
            trials=config.trials,
            tol=config.tol,
            opts=opts,
            master_seed=config.master_seed,
            mode=config.mode,
        )
    else:
        report, records = verify_mod.verify_avg_bound(
            n_a=config.n_a,
            n_b=config.n_b,
            trials=config.trials,
            bases_per_trial=config.bases_per_trial,
            tol=config.tol,
            master_seed=config.master_seed,
        )
    sys.stdout.write(verify_mod.summary_text(report))
    if config.out_path is not None:
        verify_mod.write_report(report, records, config.out_path, config.out_format)
    return 1 if report.violations else 0


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    if config.command == "skew":
        return _run_skew(config)
    if config.command == "q":
        return _run_q(config)
    if config.command == "lqu":
        return _run_lqu(config)
    if config.command == "steer":
        return _run_steer(config)
    if config.command.startswith("verify "):
        return _run_verify(config)
    raise UsageError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    try:
        return run(config)
    except UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except SkewInfoError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
