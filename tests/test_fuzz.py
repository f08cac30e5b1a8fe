"""Property tests: degenerate configurations against the oracle, the two
parsers on arbitrary text, and the CLI on arbitrary file bytes."""

from __future__ import annotations

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from tvpm import (
    Configuration,
    oracle_enumerate,
    parse_certificate,
    parse_configuration,
    plus_minus_partition,
    serialize_certificate,
    tverberg_point_count,
)
from tvpm.cli import main
from tvpm.errors import ParseError, SeparationInfeasible
from tvpm.model import CLASSICAL, COLORED

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.iterdir())]
CONFIG_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.txt"))]
CERT_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.cert"))]


@st.composite
def degenerate_configurations(draw) -> Configuration:
    """Small configurations on the integer grid [-2, 2]^d, where duplicate
    and collinear points are common; colored for about half the r = 3
    draws."""
    d = draw(st.integers(1, 2))
    r = draw(st.integers(2, 3))
    n = tverberg_point_count(d, r)
    coordinate = st.integers(-2, 2).map(Fraction)
    points = tuple(draw(st.tuples(*[coordinate] * d)) for _ in range(n))
    mu = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=r - 1))))
    coloring = None
    if r == 3 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        classes = []
        pos = 0
        while pos < n:
            size = draw(st.integers(1, r - 1))
            classes.append(tuple(sorted(order[pos : pos + size])))
            pos += size
        coloring = tuple(classes)
    mode = CLASSICAL if coloring is None else COLORED
    return Configuration(d, r, points, mode, coloring, mu)


@settings(max_examples=100, deadline=None)
@given(degenerate_configurations())
def test_degenerate_solve_is_the_oracle_first_partition(config):
    try:
        cert = plus_minus_partition(config)
    except SeparationInfeasible:
        return
    assert cert.blocks == oracle_enumerate(config)[0]


# Keyword letters, digits and separators, so that edits often stay close to
# the formats; any other character is drawn as well.
FORMAT_CHARACTERS = st.sampled_from(list("0123456789-+/.: \n\t#Cabcdeilmnoprstuvw"))


@st.composite
def edited_fixtures(draw) -> str:
    """A fixture (configuration or certificate) with one span replaced."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 20)))
    insert = draw(st.text(FORMAT_CHARACTERS | st.characters(), max_size=20))
    return text[:start] + insert + text[end:]


@settings(max_examples=300, deadline=None)
@given(st.text() | edited_fixtures())
def test_parsers_raise_nothing_but_parse_error(text):
    for parse in (parse_configuration, parse_certificate):
        try:
            parse(text)
        except ParseError:
            pass


# (d, r, |mu|, colored): cells of tests/gen that solve in milliseconds.
CELLS = [
    (1, 2, 1, False), (2, 2, 1, False), (3, 2, 1, False), (1, 3, 0, False),
    (1, 3, 2, False), (2, 3, 2, False), (1, 3, 2, True), (2, 3, 1, True),
]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(CELLS))
def test_certificate_text_round_trips(seed, cell):
    cert = plus_minus_partition(gen.separable_configuration(seed, *cell))
    assert parse_certificate(serialize_certificate(cert)) == cert


def file_bytes(fixtures: list[bytes]):
    """Arbitrary bytes, a fixture with one span replaced by arbitrary bytes
    (so that most runs get past the first line), or a fixture as it is."""

    @st.composite
    def edited(draw) -> bytes:
        data = draw(st.sampled_from(fixtures))
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 20)))
        return data[:start] + draw(st.binary(max_size=20)) + data[end:]

    return st.binary(max_size=200) | edited() | st.sampled_from(fixtures)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["solve", "verify", "oracle"]),
    file_bytes(CONFIG_BYTES),
    file_bytes(CERT_BYTES),
)
def test_cli_on_arbitrary_bytes_ends_in_a_documented_exit(command, config, cert):
    """Every run exits 0-5 with one line on stderr (none for a successful
    oracle listing), never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path, cert_path = Path(tmp) / "config", Path(tmp) / "cert"
        config_path.write_bytes(config)
        cert_path.write_bytes(cert)
        argv = [command, "--input", str(config_path)]
        if command == "verify":
            argv += ["--cert", str(cert_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(6)
    lines = err.getvalue().splitlines()
    assert len(lines) == (0 if command == "oracle" and code == 0 else 1), lines
    assert err.getvalue().endswith("\n") or not lines
