"""Configuration and certificate formats: round trips and rejections."""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from tvpm.errors import ParseError
from tvpm.model import (
    CLASSICAL,
    COLORED,
    Configuration,
    Hyperplane,
    PlusMinusCertificate,
    is_prime,
    parse_certificate,
    parse_configuration,
    serialize_certificate,
    serialize_configuration,
    tverberg_point_count,
    validate_certificate_structure,
    validate_configuration,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

LINE3 = (FIXTURES / "line3.txt").read_text()
LINE3_CERT = (FIXTURES / "line3.cert").read_text()
PLANE7 = (FIXTURES / "colored_plane7.txt").read_text()
PLANE7_CERT = (FIXTURES / "colored_plane7.cert").read_text()
# Characters at which ``str.splitlines`` ends a line and the formats do not.
LINE_SEPARATORS = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]


class TestHelpers:
    def test_point_count(self):
        assert tverberg_point_count(1, 2) == 3
        assert tverberg_point_count(2, 3) == 7
        assert tverberg_point_count(3, 2) == 5

    def test_is_prime(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestConfigurationParsing:
    def test_parse_worked_fixture(self):
        config = parse_configuration(LINE3)
        assert config.d == 1
        assert config.r == 2
        assert config.mode == CLASSICAL
        assert config.points == ((F(0),), (F(1),), (F(3),))
        assert config.mu == (2,)
        assert config.coloring is None

    def test_parse_colored_fixture(self):
        config = parse_configuration(PLANE7)
        assert config.d == 2
        assert config.r == 3
        assert config.mode == COLORED
        assert len(config.points) == 7
        assert config.coloring == ((0, 4), (1, 6), (2, 5), (3,))
        assert config.mu == (0, 1)

    def test_round_trip_is_byte_stable(self):
        for text in (LINE3, PLANE7):
            canonical = serialize_configuration(parse_configuration(text))
            assert serialize_configuration(parse_configuration(canonical)) == canonical

    def test_comments_and_blank_lines_ignored(self):
        noisy = "\n# banner\n\n" + LINE3.replace("d 1", "d 1\n# mid comment\n")
        assert parse_configuration(noisy) == parse_configuration(LINE3)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, end):
        assert parse_configuration(LINE3.replace("\n", end)) == parse_configuration(
            LINE3
        )

    @pytest.mark.parametrize("separator", LINE_SEPARATORS)
    def test_a_comment_runs_to_the_line_end_only(self, separator):
        # grep and wc -l see one comment line here, and so does the parser.
        text = LINE3.replace("mu : 2", f"# marked face switched off:{separator}mu : 2")
        assert parse_configuration(text).mu == ()

    def test_unsorted_mu_is_normalized(self):
        text = LINE3.replace("mu : 2", "mu : 2 0")
        config = parse_configuration(text)
        assert config.mu == (0, 2)

    def test_empty_mu_line_omitted_on_serialize(self):
        text = LINE3.replace("mu : 2\n", "")
        config = parse_configuration(text)
        assert config.mu == ()
        assert "mu" not in serialize_configuration(config)

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda t: t.replace("tvpm-config v1", "tvpm-config v2"), "header"),
            (lambda t: t.replace("tvpm-config v1", "nonsense"), "header"),
            (lambda t: t.replace("points 3", "points 4"), None),
            (lambda t: t.replace("2 : 3\n", ""), None),
            (lambda t: t.replace("1 : 1", "1 : 1 5"), None),
            (lambda t: t.replace("1 : 1", "0 : 1"), "twice"),
            (lambda t: t.replace("1 : 1", "1 : 1.5"), None),
            (lambda t: t.replace("1 : 1", "1 : 1/0"), None),
            (lambda t: t.replace("2 : 3", "2 : \u0661"), "coordinate"),
            (lambda t: t.replace("2 : 3", "\u0662 : 3"), "index"),
            (lambda t: t.replace("points 3", "points \u0663"), "points"),
            (lambda t: t.replace("d 1", "d 0_1"), "bad d"),
            (lambda t: t.replace("d 1", "d " + "1" * 5000), "bad d: .*digit limit"),
            (lambda t: t.replace("2 : 3", "2 : " + "1" * 5000), "coordinate: .*digit limit"),
            (lambda t: t.replace("2 : 3", "2 : 1/" + "3" * 5000), "coordinate: .*digit limit"),
            (lambda t: t.replace("2 : 3", "2" * 5000 + " : 3"), "point index: .*digit limit"),
            (lambda t: t.replace("mu : 2", "mu : " + "2" * 5000), "mu index: .*digit limit"),
            (lambda t: t.replace("mu : 2", "mu : \uff12"), "mu"),
            (lambda t: t.replace("mu : 2", "mu : 3"), "range"),
            (lambda t: t.replace("mu : 2", "mu : 2 2"), "duplicate"),
            (lambda t: t.replace("mu : 2", "mu 2"), "expected ':' in mu line"),
            (lambda t: t.replace("mode classical", "mode plusminus"), "mode"),
            (lambda t: t + "stray\n", "trailing"),
            (lambda t: t.replace("d 1", "d 0"), None),
            # d 0 with points of no coordinates reaches the validator.
            (
                lambda t: re.sub(r"^(\d) : \d$", r"\1 :", t, flags=re.M).replace(
                    "d 1", "d 0"
                ),
                "dimension d must be at least 1",
            ),
            (lambda t: t.replace("r 2", "r 1"), None),
            (lambda t: t.replace("points 3", "points 0"), "point count must be positive"),
        ],
    )
    def test_rejects_malformed_configuration(self, mangle, fragment):
        text = mangle(LINE3)
        with pytest.raises(ParseError, match=fragment):
            parse_configuration(text)

    def test_rejects_truncation_everywhere(self):
        lines = [l for l in LINE3.splitlines() if l and not l.startswith("#")]
        assert lines[-1].startswith("mu")
        mandatory = lines[:-1]
        for cut in range(1, len(mandatory)):
            with pytest.raises(ParseError):
                parse_configuration("\n".join(mandatory[:cut]) + "\n")

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda t: t.replace("r 3", "r 4"), None),
            (lambda t: t.replace("C0 : 0 4", "C0 : 0 4 2").replace("C2 : 2 5", "C2 : 5"), "at most"),
            (lambda t: t.replace("C3 : 3\n", ""), None),
            (lambda t: t.replace("C3 : 3", "C3 : 3 5"), "two color classes"),
            (lambda t: t.replace("C3 : 3", "C3 : 9"), None),
            (lambda t: t.replace("C3 : 3", "C3 :"), "class 3 is empty"),
            (lambda t: t.replace("C0 : 0 4", "C0 : 0"), "cover every vertex"),
            (lambda t: t.replace("colors 4", "colors 0"), "colors count must be positive"),
            (lambda t: t.replace("C0 : 0 4", "C0 0 4"), "expected ':' in class C0 line"),
        ],
    )
    def test_rejects_bad_colorings(self, mangle, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_configuration(mangle(PLANE7))

    def test_rejects_colors_in_classical_mode(self):
        text = PLANE7.replace("mode colored", "mode classical")
        with pytest.raises(ParseError, match="classical"):
            parse_configuration(text)

    def test_rejects_colored_mode_without_colors(self):
        text = LINE3.replace("mode classical", "mode colored")
        with pytest.raises(ParseError, match="color"):
            parse_configuration(text)


class TestValidateConfiguration:
    def _config(self, **overrides):
        base = dict(
            d=1,
            r=2,
            points=((F(0),), (F(1),), (F(3),)),
            mode=CLASSICAL,
            coloring=None,
            mu=(2,),
        )
        base.update(overrides)
        return Configuration(**base)

    def test_accepts_valid(self):
        validate_configuration(self._config())

    def test_rejects_composite_r_in_colored_mode(self):
        points = tuple((F(i),) for i in range(tverberg_point_count(1, 4)))
        config = Configuration(
            d=1,
            r=4,
            points=points,
            mode=COLORED,
            coloring=tuple((i,) for i in range(len(points))),
            mu=(),
        )
        with pytest.raises(ParseError, match="prime"):
            validate_configuration(config)

    def test_rejects_wrong_point_count(self):
        with pytest.raises(ParseError, match="expected 3 points"):
            validate_configuration(self._config(points=((F(0),), (F(1),))))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ParseError, match="coordinates"):
            validate_configuration(
                self._config(points=((F(0),), (F(1), F(2)), (F(3),)))
            )

    def test_rejects_mu_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            validate_configuration(self._config(mu=(5,)))

    # The parser sorts mu and every color class and accepts only the two
    # modes, so these reach the validator on built configurations alone.
    def test_rejects_unknown_mode(self):
        with pytest.raises(ParseError, match="unknown mode"):
            validate_configuration(self._config(mode="plusminus"))

    def test_rejects_unsorted_mu(self):
        with pytest.raises(ParseError, match="mu indices must be strictly"):
            validate_configuration(self._config(mu=(2, 1)))

    def test_rejects_unsorted_color_class(self):
        points = tuple((F(i),) for i in range(tverberg_point_count(1, 3)))
        coloring = ((1, 0), (2, 3), (4,))
        config = Configuration(1, 3, points, COLORED, coloring=coloring)
        with pytest.raises(ParseError, match="class 0 indices must be strictly"):
            validate_configuration(config)

    def test_a_number_over_the_digit_limit_is_named_not_printed(self):
        # The expected point count of d = 10**5000 has more digits than
        # ``str`` converts.
        with pytest.raises(ParseError, match="over the 4300-digit limit"):
            validate_configuration(self._config(d=10**5000))


class TestCertificateParsing:
    def test_parse_golden(self):
        cert = parse_certificate(LINE3_CERT)
        assert cert.blocks == ((0,), (1, 2))
        assert cert.coefficients == {0: F(1), 1: F(3, 2), 2: F(-1, 2)}
        assert cert.point_b == (F(0),)
        assert cert.beta == F(1, 2)
        assert cert.hyperplane == Hyperplane(w=(F(-1),), alpha=F(-2))
        assert cert.rainbow is False

    def test_round_trip_is_byte_stable(self):
        for text in (LINE3_CERT, PLANE7_CERT):
            assert serialize_certificate(parse_certificate(text)) == text

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, end):
        assert parse_certificate(LINE3_CERT.replace("\n", end)) == parse_certificate(
            LINE3_CERT
        )

    @pytest.mark.parametrize("separator", LINE_SEPARATORS)
    def test_a_comment_runs_to_the_line_end_only(self, separator):
        # A trailing line would be rejected; inside the comment it is not one.
        text = LINE3_CERT + f"# trailer{separator}alpha : 5\n"
        assert parse_certificate(text) == parse_certificate(LINE3_CERT)

    def test_parse_rainbow_golden(self):
        cert = parse_certificate(PLANE7_CERT)
        assert cert.rainbow is True
        assert cert.blocks == ((0, 6), (1, 2, 4), (3, 5))

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            # Tampering with one coefficient breaks the per-block sum.
            (lambda t: t.replace("coeff 0 : 1", "coeff 0 : 2"), "sum"),
            (lambda t: t.replace("coeff 2 : -1/2", "coeff 2 : 1/2"), "sum"),
            (lambda t: t.replace("B0 : 0", "B0 : 0 1"), "overlap"),
            (lambda t: t.replace("B0 : 0\nB1 : 1 2", "B0 : 1 2\nB1 : 0"), "sorted"),
            (lambda t: t.replace("B1 : 1 2", "B1 : 2 1"), "increasing"),
            (lambda t: t.replace("B0 : 0", "B0 0"), "expected ':' in block B0 line"),
            (lambda t: t.replace("beta : 1/2", "beta : 0"), "positive"),
            (lambda t: t.replace("beta : 1/2", "beta : -1/2"), "positive"),
            (lambda t: t.replace("w : -1", "w : 0"), "zero"),
            (lambda t: t.replace("blocks 2", "blocks 3"), None),
            (lambda t: t.replace("coeff 1 : 3/2\n", ""), None),
            (
                lambda t: t.replace("coeff 2 : -1/2", "coeff 2 : -1/2\ncoeff 2 : -1/2"),
                "twice",
            ),
            (lambda t: t.replace("rainbow 0", "rainbow 2"), "rainbow"),
            (lambda t: t.replace("b : 0", "b : 0 0"), None),
            (lambda t: t.replace("tvpm-cert v1", "tvpm-cert v9"), "header"),
            (lambda t: t.replace("B1 : 1 2", "B1 : 1 " + "2" * 5000), "digit limit"),
            (lambda t: t.replace("coeff 2 : -1/2", "coeff 2 : -1/" + "2" * 5000), "digit limit"),
            (lambda t: t.replace("w : -1", "w : -1 2"), "w has 2 coordinates"),
            (lambda t: t.replace("b : 0", "b :"), "b line has no values"),
            (
                lambda t: t.replace("r 2", "r 1")
                .replace("blocks 2", "blocks 1")
                .replace("B0 : 0\nB1 : 1 2", "B0 : 0 1 2"),
                "at least two blocks",
            ),
            (lambda t: t.replace("B1 : 1 2", "B1 :"), "block is empty"),
            # A negative index is caught by the least-vertex order.
            (lambda t: t.replace("B0 : 0", "B0 : -1 0"), "sorted by least vertex"),
            (lambda t: t.replace("b : 0", "b 0"), "expected ':' in b line"),
            (
                lambda t: t.replace("beta : 1/2", "beta : 1/2 1"),
                "beta line takes exactly one value",
            ),
        ],
    )
    def test_rejects_malformed_certificate(self, mangle, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_certificate(mangle(LINE3_CERT))

    def test_structure_validator_rejects_missing_coefficient_key(self):
        cert = parse_certificate(LINE3_CERT)
        broken = PlusMinusCertificate(
            blocks=cert.blocks,
            coefficients={0: F(1), 1: F(1)},
            point_b=cert.point_b,
            beta=cert.beta,
            hyperplane=cert.hyperplane,
            rainbow=False,
        )
        with pytest.raises(ParseError, match="union"):
            validate_certificate_structure(broken)

    # The parser checks ``b`` and ``w`` against the header's d first.
    def test_structure_validator_rejects_a_point_without_coordinates(self):
        cert = replace(parse_certificate(LINE3_CERT), point_b=())
        with pytest.raises(ParseError, match="point has no coordinates"):
            validate_certificate_structure(cert)

    @pytest.mark.parametrize("hyperplane", [None, Hyperplane((F(1), F(1)), F(0))])
    def test_structure_validator_rejects_a_hyperplane_of_another_dimension(
        self, hyperplane
    ):
        cert = replace(parse_certificate(LINE3_CERT), hyperplane=hyperplane)
        with pytest.raises(ParseError, match="hyperplane dimension mismatch"):
            validate_certificate_structure(cert)
