"""The separation and oracle programs pinned by digest.

``separating_hyperplane`` and the oracle's ``_presentation_program`` each
pose their own signs and slacks in the kernel's one form, ``A x = b, x >=
0``.  The certificate digests cover only the twenty hyperplanes of their own
solves, so these digests pin the two programs' outputs more widely: the
hyperplanes of fifty generated configurations and the verdicts of small
integer ones, some of them not separable, and the oracle's listings and
signed coefficients.  A flipped slack or a marked column left unnegated
moves a hyperplane, a verdict, a listing or a coefficient, and fails here.
All were recorded with the kernel that still took free and nonpositive
variables and ``<=``/``>=`` rows itself.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import gen
from tvpm.errors import SeparationInfeasible
from tvpm.model import CLASSICAL, Configuration, parse_configuration
from tvpm.separation import separating_hyperplane
from tvpm.verifier import oracle_enumerate, signed_presentation

FIXTURES = Path(__file__).parent / "fixtures"

SEPARATION_CELLS = ((1, 3, 1), (2, 3, 2), (3, 3, 2), (4, 2, 1), (2, 4, 3))

# SHA-256 of one line per hyperplane, ``w`` then ``alpha``.
SEPARATION_DIGEST = "7ee3a627c08fed184f8606059263854405656db5900663b335f63e79db7c5e35"
# (configurations, not separable, SHA-256 of one line per verdict).
SMALL_INTEGER_VERDICTS = (
    60,
    20,
    "3e97af38350db436e15f657ca2e8941532964901c6a4ef57e10849f7104a03bf",
)
# SHA-256 of one line per listing and one per listed partition's
# coefficients and common point.
ORACLE_DIGEST = "44483478ee2b4c686884ff512b99ad336102ce412ea741494e91af0cfe30c481"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def hyperplane_line(config: Configuration) -> str:
    h = separating_hyperplane(config)
    return " ".join(map(str, h.w)) + " | " + str(h.alpha)


def small_integer_configurations():
    """Points with coordinates in -2..2, some repeated and some collinear,
    with a random nonempty proper marked face."""
    rng = random.Random("small-integer-separation")
    for _ in range(SMALL_INTEGER_VERDICTS[0]):
        d = rng.randint(1, 3)
        n = rng.randint(2, 6)
        points = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)
        )
        mu = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
        yield Configuration(d, 2, points, CLASSICAL, mu=mu)


def test_separating_hyperplanes_are_pinned():
    lines = [
        hyperplane_line(gen.separable_configuration(seed, *cell))
        for cell in SEPARATION_CELLS
        for seed in range(10)
    ]
    assert digest(lines) == SEPARATION_DIGEST


def test_small_integer_separation_verdicts_are_pinned():
    lines = []
    for config in small_integer_configurations():
        try:
            lines.append(hyperplane_line(config))
        except SeparationInfeasible:
            lines.append("infeasible")
    verdicts = (len(lines), lines.count("infeasible"), digest(lines))
    assert verdicts == SMALL_INTEGER_VERDICTS


def oracle_configurations():
    for colored in (False, True):
        for seed in range(5):
            yield gen.separable_configuration(seed, 2, 3, 2, colored)
    for name in ("line3.txt", "colored_plane7.txt"):
        yield parse_configuration((FIXTURES / name).read_text())


def test_oracle_listings_and_presentations_are_pinned():
    lines = []
    for config in oracle_configurations():
        listing = oracle_enumerate(config)
        lines.append(repr(listing))
        for blocks in listing:
            coefficients, b = signed_presentation(config, blocks)
            lines.append(
                " ".join(f"{i}:{c}" for i, c in sorted(coefficients.items()))
                + " | "
                + " ".join(map(str, b))
            )
    assert digest(lines) == ORACLE_DIGEST
