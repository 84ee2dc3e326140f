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


# Each flag's RunConfig field and argparse type, then each command's flags. A
# command's parser declares only its own flags, so argparse leaves the rest
# over; of several such flags, the first in _FLAGS order is reported.
_FORMATS = {"json": "json-lines", "csv": "csv"}
_FLAGS = {
    "--mode": dict(dest="mode", choices=("random_K", "argmin_K")),
    "--kraus": dict(dest="kraus_count", type=int, metavar="J"),
    "--bases": dict(dest="bases_per_trial", type=int, metavar="B"),
    "--spectrum": dict(dest="spectrum", metavar="V1,V2,..."),
    "--dim-a": dict(dest="n_a", type=int, metavar="N"),
    "--dim-b": dict(dest="n_b", type=int, metavar="N"),
    "--trials": dict(dest="trials", type=int, metavar="T"),
    "--tol": dict(dest="tol", type=float, metavar="TOL"),
    "--restarts": dict(dest="restarts", type=int, metavar="R"),
    "--basis-file": dict(dest="basis_file", metavar="PATH"),
    "--state-file": dict(dest="state_file", metavar="PATH"),
    "--seed": dict(dest="master_seed", type=int, metavar="SEED"),
    "--format": dict(dest="out_format", choices=tuple(_FORMATS)),
    "--out": dict(dest="out_path", metavar="PATH"),
}
_EXACT_LQU = "--restarts does not apply to {}: side A is a qubit, so its LQU is exact and no search runs"
_VERIFY_FLAGS = ("--dim-a", "--dim-b", "--trials", "--seed", "--tol", "--out", "--format")
COMMANDS = {
    "skew": ("--state-file", "--spectrum", "--basis-file", "--out"),
    "q": ("--state-file", "--out"),
    "lqu": ("--state-file", "--spectrum", "--restarts", "--seed", "--out"),
    "steer": ("--state-file", "--seed", "--out"),
    "verify claim1": _VERIFY_FLAGS + ("--kraus", "--restarts"),
    "verify claim2": _VERIFY_FLAGS + ("--mode", "--restarts"),
    "verify avg": _VERIFY_FLAGS + ("--bases",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}\nerror: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="skewinfo", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, flags in COMMANDS.items():
        name, _, claim = command.partition(" ")
        if claim and name not in subs.choices:
            verify = subs.add_parser(name, help="run a randomized bound verification")
            claims = verify.add_subparsers(dest="claim", required=True)
        help_text = f"check the {claim} bound" if claim else f"compute {name} quantities"
        # no defaults here: RunConfig's are the only ones
        p = (claims if claim else subs).add_parser(claim or name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
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


def _reject_extras(parser: _Parser, extras: list[str], command: str) -> None:
    """Report what the command's parser left over: any unknown argument,
    else the first flag (in _FLAGS order) that only other commands read."""
    foreign, unknown = set(), []
    tokens = iter(extras)
    for token in tokens:
        flag, eq, _ = token.partition("=")
        if flag in _FLAGS:
            foreign.add(flag)
            if not eq:
                next(tokens, None)  # its value
        else:
            unknown.append(token)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    flag = next(f for f in _FLAGS if f in foreign)
    readers = [c for c, flags in COMMANDS.items() if flag in flags]
    names = f"{', '.join(readers[:-1])} and {readers[-1]}" if len(readers) > 1 else readers[0]
    raise UsageError(f"{flag} applies only to {names}, not {command}")


def parse_args(argv: list[str]) -> RunConfig:
    """Parse the command line, raising UsageError on any malformed input."""
    parser = build_parser()
    if not argv:
        raise UsageError(parser.format_help())
    ns, extras = parser.parse_known_args(_join_spectrum_value(argv))
    fields = vars(ns)
    command = fields.pop("command")
    if command == "verify":
        command = f"verify {fields.pop('claim')}"
    if extras:
        _reject_extras(parser, extras, command)
    if "spectrum" in fields:
        fields["spectrum"] = _parse_spectrum(fields["spectrum"])
    if "out_format" in fields:
        fields["out_format"] = _FORMATS[fields["out_format"]]
    config = RunConfig(command, **fields)
    for name in ("n_a", "n_b", "trials", "restarts", "kraus_count", "bases_per_trial"):
        value = getattr(config, name)
        if value is not None and value < 1:
            raise UsageError(f"{name} must be positive")
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


def _require_state(config: RunConfig, bipartite: bool = False) -> DensityMatrix | BipartiteState:
    if config.state_file is None:
        raise UsageError(f"{config.command} requires --state-file")
    state = load_state(config.state_file)
    if bipartite and not isinstance(state, BipartiteState):
        raise UsageError(f"{config.command} requires a bipartite state file with a 'dims: nA nB' header")
    return state


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
    state = _require_state(config, bipartite=True)
    if config.restarts is not None and state.n_a == 2:
        raise UsageError(_EXACT_LQU.format(config.command))
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
    state = _require_state(config, bipartite=True)
    basis = MeasurementBasis(haar_unitary(state.n_a, stream(config.master_seed, 0)))
    ensemble = steer(state, basis)
    lines = [f"outcomes = {len(ensemble.probabilities)}", f"skipped = {len(ensemble.skipped)}"]
    for idx, (p, rho_i) in enumerate(zip(ensemble.probabilities, ensemble.states)):
        purity = np.trace(rho_i @ rho_i).real
        lines.append(f"outcome {idx}: p = {p:.6f}, purity = {purity:.6f}")
        for row in rho_i:
            lines.append("  " + " ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    _emit(lines, config)
    return 0


# Each harness and the one RunConfig field it reads besides the shared ones
_HARNESSES = {
    "verify claim1": (verify_mod.verify_claim1, "kraus_count"),
    "verify claim2": (verify_mod.verify_claim2, "mode"),
    "verify avg": (verify_mod.verify_avg_bound, "bases_per_trial"),
}


def _run_verify(config: RunConfig) -> int:
    harness, field = _HARNESSES[config.command]
    kwargs = {name: getattr(config, name) for name in ("n_a", "n_b", "trials", "tol", "master_seed", field)}
    if config.restarts is not None:  # the parser takes --restarts for claim1 and claim2 only
        if config.command == "verify claim1" and config.n_a == 2:
            raise UsageError(_EXACT_LQU.format(config.command))
        kwargs["opts"] = replace(verify_mod.HARNESS_OPTS, restarts=config.restarts)
    report, records = harness(**kwargs)
    sys.stdout.write(verify_mod.summary_text(report))
    if config.out_path is not None:
        verify_mod.write_report(report, records, config.out_path, config.out_format)
    return 1 if report.violations else 0


_RUNNERS = dict(skew=_run_skew, q=_run_q, lqu=_run_lqu, steer=_run_steer, **dict.fromkeys(_HARNESSES, _run_verify))


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    if config.command not in _RUNNERS:
        raise UsageError(f"unknown command {config.command!r}")
    return _RUNNERS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_args(argv))
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
