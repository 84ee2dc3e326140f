"""Command-line parsing, the state-file format, and end-to-end runs."""

import re

import numpy as np
import pytest

from skewinfo import BipartiteState, DensityMatrix, InvalidState, ParseError, UsageError
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
    assert config.master_seed == 42
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
    # a qubit side A has an exact LQU and no search for --restarts to size;
    # claim2's steering search on A still reads it, and a qutrit A's LQU search
    state = write(tmp_path, "bell.txt", BELL)
    for argv in (["lqu", "--state-file", state, "--restarts", "9"], "verify claim1 --trials 2 --restarts 7".split()):
        assert main(argv) == 2
        assert "side A is a qubit, so its LQU is exact" in capsys.readouterr().err
    assert main("verify claim1 --dim-a 3 --trials 2 --restarts 3".split()) == 0
    assert "config.opt_restarts=3" in capsys.readouterr().out
    assert main("verify claim2 --trials 2 --restarts 3".split()) == 0


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
        "--format csv": verifiers,
        "--format json": verifiers,
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
    with pytest.raises(UsageError):
        parse_args("verify avg --trials 0".split())


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
    assert parse_args(["lqu"]).master_seed == 42
    assert parse_args("steer --seed 7".split()).master_seed == 7
    assert parse_args("verify avg --format json".split()).out_format == "json-lines"
    assert parse_args("verify avg --format csv".split()).out_format == "csv"
    state = write(tmp_path, "m.txt", MIXED_2)
    assert main(["skew", "--state-file", state, "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "--seed applies only to lqu, steer, verify claim1, verify claim2 and verify avg, not skew" in err
    assert main(["q", "--state-file", state, "--out", str(tmp_path / "q.txt"), "--format", "csv"]) == 2
    assert "--format applies only to verify claim1, verify claim2 and verify avg, not q" in capsys.readouterr().err
    assert not (tmp_path / "q.txt").exists()


def test_run_verify_defaults_to_harness_budget(capsys):
    assert main("verify claim1 --trials 2 --seed 3".split()) == 0
    out = capsys.readouterr().out
    assert "config.opt_restarts=2" in out
    assert "config.opt_max_iters=150" in out


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
