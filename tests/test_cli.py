"""Command-line surface: exit codes, byte determinism, solve/verify round
trips, and the oracle listing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from tvpm import cli
from tvpm.cli import main as cli_main
from tvpm.model import serialize_configuration

FIXTURES = Path(__file__).parent / "fixtures"
LINE3 = FIXTURES / "line3.txt"
LINE3_CERT = FIXTURES / "line3.cert"
PLANE7 = FIXTURES / "colored_plane7.txt"
PLANE7_CERT = FIXTURES / "colored_plane7.cert"


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_listing(stdout: str) -> set[frozenset[frozenset[int]]]:
    partitions = set()
    for line in stdout.splitlines():
        blocks = frozenset(
            frozenset(int(v) for v in chunk.strip("{}").split(","))
            for chunk in line.split()
        )
        partitions.add(blocks)
    return partitions


class TestSolve:
    def test_worked_instance_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--input", str(LINE3))
        assert code == 0
        assert out == LINE3_CERT.read_text()
        assert "solved: 2 blocks, 1 marked vertices" in err

    def test_byte_determinism(self, capsys):
        first = run_cli(capsys, "solve", "--input", str(LINE3))
        second = run_cli(capsys, "solve", "--input", str(LINE3))
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.cert"
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(LINE3), "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == LINE3_CERT.read_text()

    def test_colored_solve_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--mode", "colored", "--input", str(PLANE7)
        )
        assert code == 0
        assert out == PLANE7_CERT.read_text()

    def test_colored_mode_needs_color_classes(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--mode", "colored", "--input", str(LINE3)
        )
        assert code == 2
        assert "color" in err

    def test_classical_mode_rejects_marked_face(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--mode", "classical", "--input", str(LINE3)
        )
        assert code == 2
        assert "classical" in err

    def test_classical_mode_on_unmarked_config(self, capsys, tmp_path):
        text = LINE3.read_text().replace("mu : 2\n", "")
        config = tmp_path / "unmarked.txt"
        config.write_text(text)
        code, out, _ = run_cli(
            capsys, "solve", "--mode", "classical", "--input", str(config)
        )
        assert code == 0
        assert "B0 : 0 2" in out
        assert "coeff 0 : 2/3" in out

    def test_separation_infeasible_exit_code(self, capsys, tmp_path):
        config = tmp_path / "interior.txt"
        config.write_text(LINE3.read_text().replace("mu : 2", "mu : 1"))
        code, _, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 3
        assert "separation infeasible" in err

    def test_mu_too_large_exit_code(self, capsys, tmp_path):
        config = tmp_path / "wide.txt"
        config.write_text(LINE3.read_text().replace("mu : 2", "mu : 0 2"))
        code, _, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 4
        assert "marked face too large" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        config = tmp_path / "garbage.txt"
        config.write_text("not a configuration\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--input", str(tmp_path / "absent.txt")
        )
        assert code == 2
        assert "cannot read" in err


class TestVerify:
    def test_golden_round_trip(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(LINE3_CERT)
        )
        assert code == 0
        assert "certificate accepted" in err

    @pytest.mark.parametrize(
        "config, mode",
        [
            (LINE3, "plusminus"),
            (LINE3, "corollary"),
            (PLANE7, "plusminus"),
            (PLANE7, "colored"),
            (PLANE7, "corollary"),
        ],
    )
    def test_solve_then_verify_exits_zero(self, capsys, tmp_path, config, mode):
        cert = tmp_path / "round.cert"
        code, _, _ = run_cli(
            capsys,
            "solve", "--mode", mode,
            "--input", str(config),
            "--output", str(cert),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "verify", "--input", str(config), "--cert", str(cert)
        )
        assert code == 0, err

    def test_tampered_beta_is_rejected(self, capsys, tmp_path):
        cert = tmp_path / "tampered.cert"
        cert.write_text(LINE3_CERT.read_text().replace("beta : 1/2", "beta : 1/3"))
        code, _, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(cert)
        )
        assert code == 5
        assert "certificate rejected: beta-mismatch" in err

    def test_dimension_mismatch_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(PLANE7_CERT)
        )
        assert code == 5
        assert "dimension-mismatch" in err

    def test_malformed_certificate_is_a_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "broken.cert"
        cert.write_text(
            LINE3_CERT.read_text().replace("coeff 0 : 1", "coeff 0 : 2")
        )
        code, _, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(cert)
        )
        assert code == 2
        assert "parse error" in err


class TestOracle:
    def test_worked_instance_listing(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--input", str(LINE3))
        assert code == 0
        assert out == "{0} {1,2}\n"

    def test_classical_line_contains_radon_partition(self, capsys, tmp_path):
        config = tmp_path / "radon.txt"
        config.write_text(
            "tvpm-config v1\nd 1\nr 2\nmode classical\npoints 3\n"
            "0 : 0\n1 : 1\n2 : 2\n"
        )
        code, out, _ = run_cli(capsys, "oracle", "--input", str(config))
        assert code == 0
        expected = frozenset({frozenset({1}), frozenset({0, 2})})
        assert expected in parse_listing(out)

    def test_rainbow_listing(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--input", str(PLANE7))
        assert code == 0
        assert out == "{0,6} {1,2,4} {3,5}\n"

    def test_expect_nonempty_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--input", str(LINE3), "--expect-nonempty"
        )
        assert code == 0
        assert out

    def test_expect_nonempty_failure(self, capsys, tmp_path):
        config = tmp_path / "interior.txt"
        config.write_text(LINE3.read_text().replace("mu : 2", "mu : 1"))
        code, out, err = run_cli(
            capsys, "oracle", "--input", str(config), "--expect-nonempty"
        )
        assert code == 1
        assert out == ""
        assert "no valid partition" in err

    def test_empty_listing_without_flag_is_success(self, capsys, tmp_path):
        config = tmp_path / "interior.txt"
        config.write_text(LINE3.read_text().replace("mu : 2", "mu : 1"))
        code, out, _ = run_cli(capsys, "oracle", "--input", str(config))
        assert code == 0
        assert out == ""


class TestParser:
    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_the_command_is_looked_up_at_each_call(self, capsys, monkeypatch):
        # A wrapped or patched ``cmd_*`` name runs although the parser that
        # names the command was built before the patch.
        assert run_cli(capsys, "oracle", "--input", str(LINE3))[0] == 0
        seen = []

        def patched(args):
            seen.append(args.input)
            return 7

        monkeypatch.setattr(cli, "cmd_oracle", patched)
        assert run_cli(capsys, "oracle", "--input", str(LINE3)) == (7, "", "")
        assert seen == [str(LINE3)]


class TestInputBytes:
    """Inputs that are not the ASCII text format end in exit 2 with one
    line on stderr, never a traceback or a silent misreading."""

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_non_utf8_config_is_a_parse_error(self, capsys, tmp_path, command):
        config = tmp_path / "bad.txt"
        config.write_bytes(LINE3.read_bytes().replace(b"2 : 3", b"2 : \xff"))
        args = [command, "--input", str(config)]
        if command == "verify":
            args += ["--cert", str(LINE3_CERT)]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_non_utf8_certificate_is_a_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_bytes(b"\xff" + LINE3_CERT.read_bytes())
        code, _, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(cert)
        )
        assert code == 2
        assert err.startswith("parse error: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, tmp_path, command):
        # ARABIC-INDIC DIGIT ONE: int() and \d both take it for 1.
        config = tmp_path / "arabic.txt"
        config.write_text(
            LINE3.read_text().replace("2 : 3", "2 : ١"), encoding="utf-8"
        )
        code, out, err = run_cli(capsys, command, "--input", str(config))
        assert code == 2
        assert out == ""
        assert "bad coordinate" in err


    @pytest.mark.parametrize(
        "old, new",
        [("d 1", "d " + "1" * 5000), ("2 : 3", "2 : " + "1" * 5000)],
        ids=["d", "coordinate"],
    )
    def test_over_long_integer_is_a_short_parse_error(
        self, capsys, tmp_path, old, new
    ):
        config = tmp_path / "long.txt"
        config.write_text(LINE3.read_text().replace(old, new))
        code, out, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "digit limit" in err
        assert "(5000 characters)" in err
        assert err.count("\n") == 1 and len(err) < 200

    LONG = "x" * 5000

    @pytest.mark.parametrize(
        "fixture, old, new",
        [
            (LINE3, "mu : 2\n", "mu : 2\n" + LONG + "\n"),
            (LINE3, "d 1", LONG),
            (LINE3, "tvpm-config v1", "tvpm-config " + LONG),
            (PLANE7, "C0 :", LONG + " :"),
        ],
        ids=["trailing-line", "keyed-line", "header", "class-label"],
    )
    def test_over_long_config_line_is_a_short_parse_error(
        self, capsys, tmp_path, fixture, old, new
    ):
        config = tmp_path / "long.txt"
        text = fixture.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "(5" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "old, new",
        [
            ("B0 : 0", LONG + " : 0"),
            ("coeff 0 : 1", "coeff " + LONG),
            ("tvpm-cert v1", "tvpm-cert " + LONG),
            ("alpha : -2\n", "alpha : -2\n" + LONG + "\n"),
        ],
        ids=["block-label", "coeff-line", "header", "trailing-line"],
    )
    def test_over_long_certificate_line_is_a_short_parse_error(
        self, capsys, tmp_path, old, new
    ):
        cert = tmp_path / "long.cert"
        text = LINE3_CERT.read_text()
        assert old in text
        cert.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(cert)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "(5" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200


    HUGE = "9" * 4000

    @pytest.mark.parametrize(
        "fixture, old, new",
        [
            (LINE3, "2 : 3", HUGE + " : 3"),
            (LINE3, "2 : 3", HUGE + " 3"),
            (LINE3, "mu : 2", "mu : " + HUGE),
            (PLANE7, "C3 : 3", "C3 : " + HUGE),
            (LINE3, "d 1", "d " + HUGE),
            (LINE3, "r 2", "r " + HUGE),
        ],
        ids=[
            "point-index", "point-colon", "mu-index", "color-index",
            "point-dimension", "point-count",
        ],
    )
    def test_long_number_in_config_is_a_short_parse_error(
        self, capsys, tmp_path, fixture, old, new
    ):
        config = tmp_path / "long.txt"
        text = fixture.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "solve", "--input", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "(4000 characters)" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "old, new",
        [
            ("coeff 0 : 1", f"coeff {HUGE} : 1\ncoeff {HUGE} : 1"),
            ("B0 : 0\nB1 : 1 2", f"B0 : 0 {HUGE}\nB1 : 1 {HUGE}"),
            ("coeff 0 : 1", "coeff 0 : " + HUGE),
            ("r 2", "r " + HUGE),
            ("d 1", "d " + HUGE),
        ],
        ids=[
            "coeff-twice", "blocks-overlap", "block-sum", "blocks-count",
            "b-dimension",
        ],
    )
    def test_long_number_in_certificate_is_a_short_parse_error(
        self, capsys, tmp_path, old, new
    ):
        cert = tmp_path / "long.cert"
        text = LINE3_CERT.read_text()
        assert old in text
        cert.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(
            capsys, "verify", "--input", str(LINE3), "--cert", str(cert)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and "(4000 characters)" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200

    def test_certificate_over_the_digit_limit_is_refused(self, capsys, tmp_path):
        # Valid input, but the lift's numbers outgrow the int-string limit,
        # so the certificate could not be parsed back.
        big = "7" * 3000
        config = tmp_path / "big.txt"
        config.write_text(
            "tvpm-config v1\nd 2\nr 2\nmode classical\npoints 4\n"
            f"0 : 0 0\n1 : {big} 1\n2 : 1/{big} 5\n3 : -3 -2\nmu : 3\n"
        )
        output = tmp_path / "big.cert"
        code, out, err = run_cli(
            capsys, "solve", "--input", str(config), "--output", str(output)
        )
        assert code == 2
        assert out == "" and not output.exists()
        assert err.startswith("parse error: ") and "4300-digit limit" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200


# argparse's stderr for a missing command, a missing required option and an
# unknown command, byte for byte at 80 columns.
USAGE_ERRORS = {
    (): (
        "usage: tvpm [-h] {solve,verify,oracle} ...\n"
        "tvpm: error: the following arguments are required: "
        "{solve,verify,oracle}\n"
    ),
    ("solve",): (
        "usage: tvpm solve [-h] --input INPUT\n"
        "                  [--mode {classical,plusminus,colored,corollary}]\n"
        "                  [--output OUTPUT]\n"
        "tvpm solve: error: the following arguments are required: --input\n"
    ),
    ("bogus",): (
        "usage: tvpm [-h] {solve,verify,oracle} ...\n"
        "tvpm: error: argument {solve,verify,oracle}: invalid choice: 'bogus' "
        "(choose from 'solve', 'verify', 'oracle')\n"
    ),
}


class TestSubprocess:
    """True end-to-end runs in separate interpreters; separate processes
    also rule out hash-seed dependence in the output bytes."""

    def run(self, *args: str, cwd=None):
        # argparse wraps its usage lines to COLUMNS.
        return subprocess.run(
            [sys.executable, "-m", "tvpm.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**os.environ, "COLUMNS": "80"},
        )

    def test_help_exits_zero(self):
        result = self.run("--help")
        assert result.returncode == 0
        assert "solve" in result.stdout

    def test_usage_error_exits_two(self):
        for args, stderr in USAGE_ERRORS.items():
            result = self.run(*args)
            assert result.returncode == 2
            assert result.stdout == ""
            # Newer argparse releases print the choices without quotes.
            assert result.stderr.replace(
                "(choose from solve, verify, oracle)",
                "(choose from 'solve', 'verify', 'oracle')",
            ) == stderr

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_a_walk_deeper_than_the_recursion_limit_is_one_line(
        self, tmp_path, command
    ):
        # The walk nests one generator per block, about r + 20 frames above
        # the entry point; a limit of 50 leaves room to parse the arguments
        # and the file, but not for a walk of 60 blocks.
        config = tmp_path / "deep.txt"
        config.write_text(
            serialize_configuration(gen.separable_configuration(0, 1, 60, 1))
        )
        program = (
            "import sys; from tvpm.cli import main; "
            "sys.setrecursionlimit(50); sys.exit(main(sys.argv[1:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", program, command, "--input", str(config)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "internal error: the partition walk nests deeper than Python's "
            "recursion limit (50)\n"
        )

    def test_the_package_runs_as_a_module(self):
        # ``python -m tvpm`` from a checkout, with the package on the path.
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "tvpm", *args],
                capture_output=True,
                text=True,
                env=env,
            )

        listing = run("oracle", "--input", str(LINE3))
        assert listing.returncode == 0
        assert listing.stdout == (FIXTURES / "line3.oracle").read_text()
        refused = run("solve", "--mode", "classical", "--input", str(LINE3))
        assert refused.returncode == 2
        assert refused.stdout == ""

    def test_round_trip_and_cross_process_determinism(self, tmp_path):
        first = self.run("solve", "--input", str(LINE3))
        second = self.run("solve", "--input", str(LINE3))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout == LINE3_CERT.read_text()
        cert = tmp_path / "sub.cert"
        cert.write_text(first.stdout)
        verify = self.run("verify", "--input", str(LINE3), "--cert", str(cert))
        assert verify.returncode == 0
