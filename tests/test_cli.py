"""Command-line parsing, the state-file format, and end-to-end runs."""

import re
import warnings

import numpy as np
import pytest

from skewinfo import BipartiteState, DensityMatrix, InvalidState, ParseError, UsageError
from skewinfo import verify as verify_mod
from skewinfo.cli import COMMANDS, RunConfig, load_state, main, parse_args, run

MIXED_2 = "dim: 2\n0.5+0j 0+0j\n0+0j 0.5+0j\n"
BELL = (
    "dims: 2 2\n"
    "0.5+0j 0+0j 0+0j 0.5+0j\n"
    "0+0j 0+0j 0+0j 0+0j\n"
    "0+0j 0+0j 0+0j 0+0j\n"
    "0.5+0j 0+0j 0+0j 0.5+0j\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_verify_flags():
    config = parse_args("verify claim1 --dim-a 2 --dim-b 3 --trials 100 --seed 7".split())
    assert config.command == "verify claim1"
    assert (config.n_a, config.n_b) == (2, 3)
    assert config.trials == 100
    assert config.master_seed == 7


def test_parse_defaults():
    config = parse_args(["verify", "claim2"])
    assert (config.n_a, config.n_b) == (2, 2)
    assert config.trials == 1000
    assert config.master_seed is None  # the default seed, 42; lqu tells it from a given one
    assert config.restarts is None  # each subcommand picks its own budget
    assert config.tol == 1e-7
    assert config.kraus_count == 2
    assert config.bases_per_trial == 20
    assert config.spectrum is None
    assert config.out_format == "json-lines"
    assert config.mode == "random_K"  # as in verify_claim2


def test_parse_degenerate_spectrum_rejected():
    with pytest.raises(UsageError):
        parse_args("lqu --spectrum 1,1".split())


def test_parse_no_args_shows_help():
    with pytest.raises(UsageError) as err:
        parse_args([])
    assert "COMMAND" in str(err.value)


def test_parse_unknown_flag_rejected():
    with pytest.raises(UsageError):
        parse_args("skew --frobnicate 3".split())


def test_parse_unknown_subcommand_rejected():
    with pytest.raises(UsageError):
        parse_args(["entangle"])


def test_main_exit_codes(tmp_path):
    assert main([]) == 2
    assert main(["verify", "bogus"]) == 2
    state = write(tmp_path, "m.txt", MIXED_2)
    assert main(["skew", "--state-file", state]) == 0
    assert main(["skew", "--state-file", str(tmp_path / "missing.txt")]) == 1


def test_load_state_maximally_mixed(tmp_path):
    state = load_state(write(tmp_path, "m.txt", MIXED_2))
    assert isinstance(state, DensityMatrix)
    np.testing.assert_allclose(state.matrix, np.eye(2) / 2)


def test_load_state_bell_bipartite(tmp_path):
    state = load_state(write(tmp_path, "bell.txt", BELL))
    assert isinstance(state, BipartiteState)
    assert state.dims == (2, 2)


def test_load_state_rejects_bad_trace(tmp_path):
    path = write(tmp_path, "bad.txt", "dim: 2\n0.9+0j 0+0j\n0+0j 0.9+0j\n")
    with pytest.raises(InvalidState) as err:
        load_state(path)
    assert err.value.invariant == "unit trace"
    assert err.value.residual == pytest.approx(0.8)


def test_load_state_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        load_state(write(tmp_path, "a.txt", "0.5 0\n0 0.5\n"))  # missing header
    with pytest.raises(ParseError):
        load_state(write(tmp_path, "b.txt", "dim: 2\n0.5 oops\n0 0.5\n"))
    with pytest.raises(ParseError):
        load_state(write(tmp_path, "c.txt", "dim: 3\n1 0\n0 0\n"))  # wrong row count


MIXED_2_ROWS = "0.5+0j 0+0j\n0+0j 0.5+0j\n"


@pytest.mark.parametrize(
    "text, basis, accepted",
    [
        (BELL, False, True),
        (BELL.replace("dims: 2 2", "DIMS:2 2"), False, True),
        (MIXED_2, False, True),
        ("\ndim: 2\n\n0.5 0\n   \n0 0.5\n\n", False, True),  # blank lines
        ("dim: 2\n(0.5+0j) (0+0j)\n(0+0j) (0.5+0j)\n", False, True),
        ("dim: 2\n1 0\n0 1\n", True, True),
        ("", False, False),  # empty file
        ("\n  \n", False, False),  # blank lines only
        (MIXED_2_ROWS, False, False),  # missing header
        ("matrix: 2\n" + MIXED_2_ROWS, False, False),  # unknown header
        ("dims: 2\n" + MIXED_2_ROWS, False, False),  # too few sizes
        ("dim: 2 1\n" + MIXED_2_ROWS, False, False),  # too many sizes
        ("dims: 2 1 1\n" + MIXED_2_ROWS, False, False),
        ("dim: two\n" + MIXED_2_ROWS, False, False),  # non-integer size
        ("dims: 2 1.0\n" + MIXED_2_ROWS, False, False),
        ("dim: 2\n0.5+0j 0+0j 0\n0+0j 0.5+0j\n", False, False),  # ragged row
        ("dim: 2\n0.5+0j\n0+0j 0.5+0j\n", False, False),
        ("dim: 2\n0.5 oops\n0 0.5\n", False, False),  # bad token
        ("dim: 2\n0.5 0\n", False, False),  # too few rows
        ("dim: 2\n" + MIXED_2_ROWS + "0 0\n", False, False),  # too many rows
        ("dim: 2\n0.5 0\n0 0.5 0\n", False, False),  # too many entries in the last row
        ("dim: 2\nnan 0\n0 0.5\n", False, False),
        ("dim: 2\n0.5 0\n0 0.5+nanj\n", False, False),
        ("dim: 2\ninf 0\n0 0.5\n", False, False),
        ("dim: 2\n0.5 -infj\n0 0.5\n", False, False),
        ("dims: 2 1\n1 0\n0 1\n", True, False),  # a basis file with a 'dims:' header
    ],
)
def test_reader_verdicts(tmp_path, capsys, text, basis, accepted):
    # a file is read or it is a ParseError that names it, exit status 1
    path = write(tmp_path, "m.txt", text)
    state = write(tmp_path, "s.txt", MIXED_2) if basis else path
    argv = ["skew", "--state-file", state, "--basis-file", path] if basis else ["q", "--state-file", path]
    assert main(argv) == (0 if accepted else 1)
    err = capsys.readouterr().err
    assert err == "" if accepted else err.startswith(f"ParseError: {path}: ")


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(b"dim: 1\n\xff\n")
    assert main(["q", "--state-file", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"ParseError: {path}: 'utf-8' codec can't decode")


def test_run_skew_maximally_mixed(tmp_path, capsys):
    state = write(tmp_path, "m.txt", MIXED_2)
    assert main(["skew", "--state-file", state]) == 0
    out = capsys.readouterr().out
    assert "skew information = 0.000000" in out


def test_run_skew_with_basis_file(tmp_path, capsys):
    # Hadamard eigenbasis with spectrum {-1,1} makes the observable -sigma_x;
    # skew of diag(0.9, 0.1) against it is 1 - 2 sqrt(0.09) = 0.4
    state = write(tmp_path, "d.txt", "dim: 2\n0.9+0j 0+0j\n0+0j 0.1+0j\n")
    h = 1 / np.sqrt(2)
    basis = write(tmp_path, "h.txt", f"dim: 2\n{h}+0j {h}+0j\n{h}+0j {-h}+0j\n")
    code = main(["skew", "--state-file", state, "--basis-file", basis, "--spectrum", "-1,1"])
    assert code == 0
    assert "skew information = 0.400000" in capsys.readouterr().out


def test_run_q_monopartite(tmp_path, capsys):
    state = write(tmp_path, "m.txt", MIXED_2)
    assert main(["q", "--state-file", state]) == 0
    out = capsys.readouterr().out
    assert "q_total = 0.000000" in out
    assert "q_local" not in out


def test_run_lqu_bell(tmp_path, capsys):
    state = write(tmp_path, "bell.txt", BELL)
    assert main(["lqu", "--state-file", state, "--spectrum", "-1,1"]) == 0
    out = capsys.readouterr().out
    assert "lqu = 1.000000" in out
    assert "restarts_used = 0" in out  # exact on a qubit side


def test_restarts_is_a_usage_error_where_side_a_is_a_qubit(tmp_path, capsys):
    # a qubit side A has an exact LQU and no search for --restarts to size,
    # nor restarts for lqu's --seed to draw; claim2's steering search on A
    # still reads --restarts, and a qutrit A's LQU search both flags
    state = write(tmp_path, "bell.txt", BELL)
    for argv in (
        ["lqu", "--state-file", state, "--restarts", "9"],
        ["lqu", "--state-file", state, "--seed", "1"],
        ["lqu", "--state-file", state, "--seed", "42"],
        "verify claim1 --trials 2 --restarts 7".split(),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{argv[-2]} does not apply to" in err and "side A has at most two levels, so its LQU is exact" in err
    diagonal = ("0.25", "0.25", "0.125", "0.125", "0.125", "0.125")
    rows = [" ".join(v if i == j else "0" for j in range(6)) for i, v in enumerate(diagonal)]
    qutrit = write(tmp_path, "diag32.txt", "dims: 3 2\n" + "\n".join(rows) + "\n")
    assert main(["lqu", "--state-file", qutrit]) == 0
    default = capsys.readouterr().out
    assert main(["lqu", "--state-file", qutrit, "--seed", "42", "--restarts", "16"]) == 0
    assert capsys.readouterr().out == default  # the defaults are seed 42 and 16 restarts
    assert main("verify claim1 --dim-a 3 --trials 2 --restarts 3".split()) == 0
    assert "config.opt_restarts=3" in capsys.readouterr().out
    assert main("verify claim2 --trials 2 --restarts 3".split()) == 0


def test_restarts_is_a_usage_error_where_side_a_has_one_level(capsys):
    # a 1-level side A has the exact LQU 0: claim1 runs no search there and
    # draws no restarts, so --restarts would change nothing
    assert main("verify claim1 --dim-a 1 --trials 2 --restarts 3".split()) == 2
    err = capsys.readouterr().err
    assert "--restarts does not apply to verify claim1: side A has at most two levels" in err
    assert main("verify claim1 --dim-a 1 --trials 2".split()) == 0


def test_lqu_search_flags_are_usage_errors_where_side_a_has_one_level(tmp_path, capsys):
    # lqu on a 1-level side A is exactly 0 and draws nothing, so --seed and
    # --restarts would be accepted and ignored
    state = write(tmp_path, "s12.txt", "dims: 1 2\n0.5+0j 0+0j\n0+0j 0.5+0j\n")
    for flags in (["--seed", "1"], ["--restarts", "3"]):
        assert main(["lqu", "--state-file", state, *flags]) == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} does not apply to lqu: side A has at most two levels" in err
    assert main(["lqu", "--state-file", state]) == 0
    out = capsys.readouterr().out
    assert "lqu = 0.000000" in out and "restarts_used = 0" in out and "converged = true" in out


def test_lqu_seed_is_a_usage_error_with_one_restart(tmp_path, capsys):
    # on a searched side A the one restart is the spectral seed, so nothing is
    # drawn and --seed would be accepted and ignored; a second restart draws
    diagonal = ("0.25", "0.25", "0.125", "0.125", "0.125", "0.125")
    rows = [" ".join(v if i == j else "0" for j in range(6)) for i, v in enumerate(diagonal)]
    qutrit = write(tmp_path, "diag32.txt", "dims: 3 2\n" + "\n".join(rows) + "\n")
    assert main(["lqu", "--state-file", qutrit, "--restarts", "1", "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "--seed does not apply to lqu --restarts 1: its one restart is the spectral seed, so it draws nothing\n"
    )
    assert main(["lqu", "--state-file", qutrit, "--restarts", "1"]) == 0
    out = capsys.readouterr().out
    assert "restarts_used = 1" in out and "converged = false" in out
    assert main(["lqu", "--state-file", qutrit, "--restarts", "2", "--seed", "5"]) == 0
    assert "restarts_used = 2" in capsys.readouterr().out


@pytest.mark.parametrize("flags", ["", "--mode random_K --dim-b 3", "--mode argmin_K --dim-b 1", "--mode argmin_K"])
def test_claim2_restarts_is_a_usage_error_where_nothing_is_searched(monkeypatch, capsys, flags):
    # with one level on A the steering search has nothing to search, and
    # random_K draws B's observable while argmin_K on a side B of at most
    # two levels takes its exact LQU, so --restarts would change nothing
    monkeypatch.setattr(verify_mod, "_run_chunk", lambda job: pytest.fail("a trial ran"))
    assert main(f"verify claim2 --dim-a 1 --trials 3 --restarts 3 {flags}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "--restarts does not apply to verify claim2: side A has one level and B's LQU is not searched,"
        " so no search runs\n"
    )


@pytest.mark.parametrize("flags", ["", "--dim-a 3", "--mode argmin_K", "--dim-a 3 --mode argmin_K"])
def test_claim2_restarts_is_a_usage_error_on_a_one_level_side_b(monkeypatch, capsys, flags):
    # on a 1-level B both sides are exactly 0, so no search runs on either
    # side and --restarts would change nothing
    monkeypatch.setattr(verify_mod, "_run_chunk", lambda job: pytest.fail("a trial ran"))
    assert main(f"verify claim2 --dim-b 1 --trials 3 --restarts 3 {flags}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "--restarts does not apply to verify claim2: side B has one level, so both sides are exactly 0"
        " and no search runs\n"
    )
    monkeypatch.undo()
    assert main(f"verify claim2 --dim-b 1 --trials 3 {flags}".split()) == 0


@pytest.mark.parametrize("flags", ["--dim-a 2", "--dim-a 2 --mode argmin_K", "--dim-a 1 --mode argmin_K --dim-b 3"])
def test_claim2_restarts_sizes_a_search(capsys, flags):
    # the steering search on a side A of two levels, or the LQU search on a
    # three-level side B
    assert main(f"verify claim2 --trials 2 --restarts 3 {flags}".split()) == 0
    assert "config.opt_restarts=3" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "command, spectrum", [("skew", "nan,1"), ("skew", "-1,inf"), ("lqu", "-1,0,nan"), ("lqu", "-inf,0,1")]
)
def test_non_finite_spectrum_is_a_usage_error(tmp_path, capsys, command, spectrum):
    # a NaN gap passes the minimum-gap test, so without the finiteness test
    # these printed nan (and inf raised NumPy warnings) and exited 0
    path = write(tmp_path, "s.txt", MIXED_2 if command == "skew" else "dims: 3 1\n0.5 0 0\n0 0.25 0\n0 0 0.25\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--state-file", path, "--spectrum", spectrum]) == 2
    captured = capsys.readouterr()
    assert "spectrum must be finite" in captured.err and captured.out == ""


def test_run_q_on_bipartite(tmp_path, capsys):
    state = write(tmp_path, "bell.txt", BELL)
    assert main(["q", "--state-file", state]) == 0
    out = capsys.readouterr().out
    assert "q_total = 3.000000" in out  # pure state on the 4-dim joint space
    assert "q_local_A = 1.500000" in out
    assert "q_local_B = 1.500000" in out


def test_run_steer_prints_ensemble(tmp_path, capsys):
    state = write(tmp_path, "bell.txt", BELL)
    assert main(["steer", "--state-file", state, "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "outcomes = 2" in out
    assert "purity = 1.000000" in out


def test_run_verify_claim2_exit_zero(capsys):
    code = main("verify claim2 --trials 6 --seed 3 --restarts 3".split())
    out = capsys.readouterr().out
    assert code == 0
    assert "violations=0" in out
    # --restarts overrides only the restart count of the harness budget
    assert "config.opt_restarts=3" in out
    assert "config.opt_max_iters=150" in out


@pytest.mark.parametrize("fault,line", [("raise", "failed=1"), ("monotonicity", "monotonicity_violations=1")])
def test_run_verify_exits_1_when_a_trial_fails(monkeypatch, tmp_path, capsys, fault, line):
    # trial 2 of four raises (and fails alone after the bisection), or
    # breaks the monotonicity check; no bound is violated, yet the run
    # exits 1, after writing its summary and --out files
    real = verify_mod._avg_body

    def faulty(config, indices):
        lhs, rhs, mono_ok = real(config, indices)
        if 2 in indices and fault == "raise":
            raise InvalidState("unit trace", 1.0)
        return lhs, rhs, mono_ok & (np.array(indices) != 2)

    monkeypatch.setenv("UQ_THREADS", "1")  # in-process, where the patch applies
    monkeypatch.setattr(verify_mod, "_avg_body", faulty)
    out_path = str(tmp_path / "avg.jsonl")
    assert main(["verify", "avg", "--trials", "4", "--bases", "3", "--out", out_path]) == 1
    out = capsys.readouterr().out
    assert "violations=0" in out.splitlines() and line in out.splitlines()
    assert open(out_path + ".summary").read() == out
    assert len(open(out_path).read().splitlines()) == 4


def test_run_verify_claim2_mode_is_echoed(capsys):
    assert main("verify claim2 --trials 2 --seed 3 --mode argmin_K".split()) == 0
    assert "config.mode=argmin_K" in capsys.readouterr().out
    assert main("verify claim2 --trials 2 --seed 3".split()) == 0
    assert "config.mode=random_K" in capsys.readouterr().out


def test_parse_mode_rejected_outside_claim2():
    for argv in ("verify claim1 --mode argmin_K", "verify avg --mode random_K", "lqu --mode argmin_K"):
        with pytest.raises(UsageError):
            parse_args(argv.split())
    assert main("verify claim1 --trials 2 --mode argmin_K".split()) == 2
    with pytest.raises(UsageError):
        parse_args("verify claim2 --mode best_K".split())


def test_parse_flags_rejected_where_no_command_reads_them():
    # each flag below is read by the listed commands only; elsewhere it
    # would be silently ignored, so it is a usage error
    verifiers = {"verify claim1", "verify claim2", "verify avg"}
    readers = {
        "--kraus 3": {"verify claim1"},
        "--bases 5": {"verify avg"},
        "--spectrum -1,1": {"skew", "lqu"},
        "--dim-a 3": verifiers,
        "--dim-b 3": verifiers,
        "--trials 5": verifiers,
        "--tol 1e-6": verifiers,
        "--restarts 3": {"lqu", "verify claim1", "verify claim2"},
        "--basis-file u.txt": {"skew"},
        "--state-file rho.txt": {"skew", "q", "lqu", "steer"},
        "--seed 7": {"lqu", "steer"} | verifiers,
        "--format csv --out r.csv": verifiers,
        "--format json --out r.jsonl": verifiers,
    }
    commands = ("skew", "q", "lqu", "steer", "verify claim1", "verify claim2", "verify avg")
    for flag, allowed in readers.items():
        for command in commands:
            argv = f"{command} {flag}".split()
            if command in allowed:
                parse_args(argv)
            else:
                with pytest.raises(UsageError, match=flag.split()[0]):
                    parse_args(argv)
    assert parse_args("verify claim1 --kraus 3".split()).kraus_count == 3
    assert parse_args("verify avg --bases 5".split()).bases_per_trial == 5
    assert parse_args(["verify", "claim1"]).bases_per_trial == 20  # unused default, not a flag
    config = parse_args("verify avg --dim-a 3 --dim-b 4 --trials 5 --tol 1e-6".split())
    assert (config.n_a, config.n_b, config.trials, config.tol) == (3, 4, 5, 1e-6)
    config = parse_args(["skew"])  # unused defaults, not flags
    assert (config.n_a, config.n_b, config.trials, config.tol, config.restarts) == (2, 2, 1000, 1e-7, None)


def test_main_exits_2_on_a_count_below_one(monkeypatch, capsys):
    # the harness and the optimizer options check their counts, once each;
    # main turns their UsageError into exit 2 before any trial runs
    monkeypatch.setattr(verify_mod, "_run_chunk", lambda job: pytest.fail("a trial ran"))
    for argv, name in (
        ("verify avg --trials 0", "trials"),
        ("verify claim1 --trials 0", "trials"),
        ("verify claim1 --dim-a 0", "n_a"),
        ("verify claim2 --dim-b 0", "n_b"),
        ("verify claim1 --kraus 0", "kraus_count"),
        ("verify avg --bases 0", "bases_per_trial"),
        ("verify claim1 --dim-a 3 --restarts 0", "restarts"),
        ("verify claim2 --restarts -1", "restarts"),
    ):
        assert main(argv.split()) == 2, argv
        assert capsys.readouterr().err.startswith(f"{name} must be "), argv


def test_main_exits_2_on_an_ignored_flag(tmp_path, capsys):
    state = write(tmp_path, "bell.txt", BELL)
    assert main("verify claim2 --trials 2 --kraus 3".split()) == 2
    assert "--kraus applies only to verify claim1" in capsys.readouterr().err
    assert main("verify claim1 --trials 2 --bases 5".split()) == 2
    assert main(["q", "--state-file", state, "--spectrum", "-1,1"]) == 2
    assert main(["steer", "--state-file", state, "--spectrum", "-1,1"]) == 2
    assert "--spectrum applies only to skew and lqu" in capsys.readouterr().err
    assert main(["q", "--state-file", state, "--trials", "5"]) == 2
    assert main(["steer", "--state-file", state, "--basis-file", state]) == 2
    assert main(["verify", "claim1", "--trials", "2", "--state-file", state]) == 2
    assert main("verify avg --trials 2 --restarts 3".split()) == 2
    err = capsys.readouterr().err
    assert "--restarts applies only to lqu, verify claim1 and verify claim2, not verify avg" in err


def test_seed_and_format_take_their_defaults_after_the_check(tmp_path, capsys):
    assert parse_args(["lqu"]).master_seed is None  # 42 when it is drawn from
    assert parse_args("steer --seed 7".split()).master_seed == 7
    assert parse_args("verify avg --format json --out r.jsonl".split()).out_format == "json-lines"
    assert parse_args("verify avg --format csv --out r.csv".split()).out_format == "csv"
    state = write(tmp_path, "m.txt", MIXED_2)
    assert main(["skew", "--state-file", state, "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "--seed applies only to lqu, steer, verify claim1, verify claim2 and verify avg, not skew" in err
    assert main(["q", "--state-file", state, "--out", str(tmp_path / "q.txt"), "--format", "csv"]) == 2
    assert "--format applies only to verify claim1, verify claim2 and verify avg, not q" in capsys.readouterr().err
    assert not (tmp_path / "q.txt").exists()


def test_format_without_out_is_a_usage_error(monkeypatch, capsys):
    # --format picks the records file's format, and without --out no such
    # file is written, so the flag would be accepted and ignored
    monkeypatch.setattr(verify_mod, "_run_chunk", lambda job: pytest.fail("a trial ran"))
    for command in ("verify claim1", "verify claim2", "verify avg"):
        for fmt in ("csv", "json"):
            assert main(f"{command} --trials 2 --format {fmt}".split()) == 2
            captured = capsys.readouterr()
            assert f"--format applies only with --out: {command}" in captured.err and captured.out == ""


def test_run_verify_defaults_to_harness_budget(capsys):
    # claim1 descends from the spectral seed alone; claim2 keeps two restarts
    for claim, restarts in (("claim1 --dim-a 3", 1), ("claim2", 2)):
        assert main(f"verify {claim} --trials 2 --seed 3".split()) == 0
        out = capsys.readouterr().out
        assert f"config.opt_restarts={restarts}\n" in out
        assert "config.opt_max_iters=150" in out
    # claim1's default side A has two levels: its LQU is exact, and no budget is echoed
    assert main("verify claim1 --trials 2 --seed 3".split()) == 0
    assert "config.opt_" not in capsys.readouterr().out


def test_run_verify_rejects_bad_uq_threads(monkeypatch, capsys):
    monkeypatch.setenv("UQ_THREADS", "abc")
    assert main("verify avg --trials 2".split()) == 2
    assert "UQ_THREADS" in capsys.readouterr().err


def test_run_verify_writes_report(tmp_path, capsys):
    out_path = str(tmp_path / "rep.csv")
    code = main(
        ["verify", "avg", "--trials", "4", "--bases", "5", "--seed", "2", "--out", out_path, "--format", "csv"]
    )
    assert code == 0
    lines = open(out_path).read().splitlines()
    assert len(lines) == 5
    assert open(out_path + ".summary").read().startswith("claim_id=avg")


def test_stdout_is_reproducible(tmp_path, capsys):
    state = write(tmp_path, "bell.txt", BELL)
    argv = ["steer", "--state-file", state, "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_metric_out_file_matches_stdout(tmp_path, capsys):
    state = write(tmp_path, "m.txt", MIXED_2)
    out_path = str(tmp_path / "skew.txt")
    assert main(["skew", "--state-file", state, "--out", out_path]) == 0
    assert open(out_path).read() == capsys.readouterr().out


def test_run_rejects_monopartite_for_lqu(tmp_path):
    config = parse_args(["lqu", "--state-file", write(tmp_path, "m.txt", MIXED_2)])
    with pytest.raises(UsageError):
        run(config)


def test_run_requires_state_file():
    with pytest.raises(UsageError):
        run(RunConfig(command="skew"))


def test_non_finite_tol_is_rejected(capsys):
    # margin < -nan is never true, so a NaN tolerance would hide every
    # violation, and a negative one would count bounds that hold; the CLI
    # takes the harness's rule, so it rejects what the API rejects
    for bad in ("nan", "inf", "NaN", "-1"):
        assert main(["verify", "claim1", "--trials", "2", "--tol", bad]) == 2
        assert "tol must be finite and non-negative" in capsys.readouterr().err
    assert main("verify avg --trials 2 --tol inf".split()) == 2
    assert "tol must be finite and non-negative, got inf" in capsys.readouterr().err


def test_zero_tol_runs_as_in_the_api(capsys):
    # a zero tolerance counts every negative margin, in the CLI as in the API
    assert main("verify claim1 --trials 2 --tol 0".split()) == 0
    assert "config.violation_tol=0.0\n" in capsys.readouterr().out


def test_help_lists_only_the_commands_own_flags(capsys):
    for command, flags in COMMANDS.items():
        with pytest.raises(SystemExit) as exit_info:
            parse_args([*command.split(), "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert listed == {*flags, "-h", "--help"}, command
