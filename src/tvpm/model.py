"""Domain types plus the two line-oriented text formats.

Configuration format (``tvpm-config v1``)::

    tvpm-config v1
    d <int>
    r <int>
    mode <classical|colored>
    points <count>
    <index> : <rat> <rat> ... <rat>
    colors <m+1>
    C<index> : <vertex indices>
    mu : <vertex indices>

Rationals are ``p/q`` with the sign on p and q > 0, or bare integers.  The
``colors`` section is required in colored mode and forbidden in classical
mode.  The ``mu`` line is optional; absent or empty means the empty face.
Blank lines and ``#`` comments are ignored.  Indices are 0-based and the
point count must equal (r - 1) * (d + 1) + 1.

Certificate format (``tvpm-cert v1``)::

    tvpm-cert v1
    d <int>
    r <int>
    rainbow <0|1>
    blocks <r>
    B<j> : <vertex indices>
    coeff <index> : <rat>
    b : <rat> ... <rat>
    beta : <rat>
    w : <rat> ... <rat>
    alpha : <rat>

Blocks are written in canonical order (sorted by least vertex, indices
ascending inside a block) and there is exactly one ``coeff`` line per vertex
appearing in a block, in ascending index order.  Both serializers emit
canonical text, so serialization follows parse exactly and byte-identical
output is guaranteed for equal values.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .errors import ParseError
from .linalg import Point, excerpt, format_scalar, int_literal, parse_scalar


@dataclass(frozen=True)
class Hyperplane:
    """The set of x with <x, w> = alpha; w must be nonzero."""

    w: tuple[Fraction, ...]
    alpha: Fraction


@dataclass(frozen=True)
class Configuration:
    d: int
    r: int
    points: tuple[Point, ...]
    mode: str
    coloring: Optional[tuple[tuple[int, ...], ...]] = None
    mu: tuple[int, ...] = ()


@dataclass(frozen=True)
class TverbergPartition:
    """r disjoint blocks whose convex hulls share ``witness``; ``coefficients``
    maps every vertex in a block to its convex weight within that block."""

    blocks: tuple[tuple[int, ...], ...]
    coefficients: dict[int, Fraction] = field(compare=True)
    witness: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class PlusMinusCertificate:
    """Blocks plus, per vertex, a signed affine coefficient; each block's
    coefficients sum to 1 and combine its points to ``point_b``.  Marked
    vertices carry nonpositive coefficients, unmarked ones nonnegative.
    ``beta`` is the positive normalizer produced by the projective pull-back
    and ``hyperplane`` strictly separates the marked points from the rest."""

    blocks: tuple[tuple[int, ...], ...]
    coefficients: dict[int, Fraction] = field(compare=True)
    point_b: tuple[Fraction, ...] = ()
    beta: Fraction = Fraction(1)
    hyperplane: Hyperplane = None
    rainbow: bool = False


CLASSICAL = "classical"
COLORED = "colored"


def tverberg_point_count(d: int, r: int) -> int:
    """Number of points a configuration must carry: (r - 1) * (d + 1) + 1."""
    return (r - 1) * (d + 1) + 1


def face_complement(face: tuple[int, ...], n_points: int) -> tuple[int, ...]:
    members = set(face)
    return tuple(i for i in range(n_points) if i not in members)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def validate_configuration(config: Configuration) -> None:
    """Raise ParseError unless every structural invariant holds."""
    if config.d < 1:
        raise ParseError("dimension d must be at least 1")
    if config.r < 2:
        raise ParseError("block count r must be at least 2")
    if config.mode not in (CLASSICAL, COLORED):
        raise ParseError(f"unknown mode: {config.mode!r}")
    expected = tverberg_point_count(config.d, config.r)
    if len(config.points) != expected:
        raise ParseError(
            f"expected {_num(expected)} points for d={_num(config.d)}, "
            f"r={_num(config.r)}, got {len(config.points)}"
        )
    for i, p in enumerate(config.points):
        if len(p) != config.d:
            raise ParseError(
                f"point {i} has {len(p)} coordinates, expected {_num(config.d)}"
            )
    n = len(config.points)
    for idx in config.mu:
        if not 0 <= idx < n:
            raise ParseError(f"mu index {_num(idx)} out of range 0..{n - 1}")
    if any(a >= b for a, b in zip(config.mu, config.mu[1:])):
        raise ParseError("mu indices must be strictly increasing")
    if config.mode == COLORED:
        if config.coloring is None:
            raise ParseError("colored mode requires color classes")
        if not is_prime(config.r):
            raise ParseError(f"colored mode requires prime r, got {_num(config.r)}")
        seen: set[int] = set()
        for ci, cls in enumerate(config.coloring):
            if not cls:
                raise ParseError(f"color class {ci} is empty")
            if any(a >= b for a, b in zip(cls, cls[1:])):
                raise ParseError(f"color class {ci} indices must be strictly increasing")
            if len(cls) > config.r - 1:
                raise ParseError(
                    f"color class {ci} has {len(cls)} vertices; at most "
                    f"r-1 = {config.r - 1} allowed"
                )
            for idx in cls:
                if not 0 <= idx < n:
                    raise ParseError(
                        f"color index {_num(idx)} out of range 0..{n - 1}"
                    )
                if idx in seen:
                    raise ParseError(f"vertex {idx} appears in two color classes")
                seen.add(idx)
        if len(seen) != n:
            raise ParseError("color classes must cover every vertex")
    elif config.coloring is not None:
        raise ParseError("classical mode does not take color classes")


def validate_certificate_structure(cert: PlusMinusCertificate) -> None:
    """Check every invariant decidable from the certificate alone."""
    d = len(cert.point_b)
    if d < 1:
        raise ParseError("certificate point has no coordinates")
    if cert.hyperplane is None or len(cert.hyperplane.w) != d:
        raise ParseError("certificate hyperplane dimension mismatch")
    if all(v == 0 for v in cert.hyperplane.w):
        raise ParseError("certificate hyperplane normal is zero")
    if len(cert.blocks) < 2:
        raise ParseError("certificate needs at least two blocks")
    seen: set[int] = set()
    previous_min = -1
    for block in cert.blocks:
        if not block:
            raise ParseError("certificate block is empty")
        if any(a >= b for a, b in zip(block, block[1:])):
            raise ParseError("block indices must be strictly increasing")
        if block[0] <= previous_min:
            raise ParseError("blocks must be sorted by least vertex")
        previous_min = block[0]
        for idx in block:
            if idx < 0:
                raise ParseError(f"negative vertex index {_num(idx)}")
            if idx in seen:
                raise ParseError(f"blocks overlap at vertex {_num(idx)}")
            seen.add(idx)
    if set(cert.coefficients) != seen:
        raise ParseError("coefficient indices must match the block union exactly")
    for block in cert.blocks:
        total = sum(cert.coefficients[i] for i in block)
        if total != 1:
            raise ParseError(
                f"coefficients of block {{{_num(','.join(map(str, block)))}}} "
                f"sum to {_num(total)}, expected 1"
            )
    if cert.beta <= 0:
        raise ParseError("beta must be positive")


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    def __init__(self, text: str):
        self.lines = [
            stripped
            for raw in text.splitlines()
            for stripped in [raw.split("#", 1)[0].strip()]
            if stripped
        ]
        self.pos = 0

    def next(self, what: str) -> list[str]:
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of input, expected {what}")
        tokens = self.lines[self.pos].split()
        self.pos += 1
        return tokens

    def peek(self) -> Optional[list[str]]:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].split()

    def done(self) -> None:
        if self.pos < len(self.lines):
            raise ParseError(f"unexpected trailing line: {excerpt(self.lines[self.pos])}")


def _num(value) -> str:
    """A number (or a list of them) for a message: in full up to 20
    characters, otherwise cut short by ``excerpt``, so that the message
    stays one short line."""
    try:
        text = str(value)
    except ValueError:
        return f"a number over the {sys.get_int_max_str_digits()}-digit limit"
    return text if len(text) <= 20 else excerpt(text)


# ``int`` alone would also accept "1_000" and non-ASCII digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")


def _int(token: str, what: str) -> int:
    if not _INTEGER_RE.match(token):
        raise ParseError(f"bad {what}: {excerpt(token)}")
    try:
        return int_literal(token)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {exc}") from None


def _rat(token: str, what: str) -> Fraction:
    try:
        return parse_scalar(token)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {exc}") from None


def _keyed(cursor: _Cursor, key: str) -> list[str]:
    tokens = cursor.next(f"{key!r} line")
    if not tokens or tokens[0] != key:
        raise ParseError(f"expected {key!r} line, got: {excerpt(' '.join(tokens))}")
    return tokens[1:]


def _keyed_int(cursor: _Cursor, key: str) -> int:
    rest = _keyed(cursor, key)
    if len(rest) != 1:
        raise ParseError(f"{key!r} line takes exactly one value")
    return _int(rest[0], key)


def _indices_after_colon(tokens: list[str], what: str) -> tuple[int, ...]:
    if not tokens or tokens[0] != ":":
        raise ParseError(f"expected ':' in {what} line")
    return tuple(_int(t, f"{what} index") for t in tokens[1:])


def _sorted_unique(indices: tuple[int, ...], what: str) -> tuple[int, ...]:
    if len(set(indices)) != len(indices):
        raise ParseError(f"duplicate index in {what}")
    return tuple(sorted(indices))


def parse_configuration(text: str) -> Configuration:
    """Parse ``tvpm-config v1`` text into a validated Configuration."""
    cursor = _Cursor(text)
    header = cursor.next("header")
    if header != ["tvpm-config", "v1"]:
        raise ParseError(f"bad header: {excerpt(' '.join(header))}")
    d = _keyed_int(cursor, "d")
    r = _keyed_int(cursor, "r")
    mode_rest = _keyed(cursor, "mode")
    if len(mode_rest) != 1 or mode_rest[0] not in (CLASSICAL, COLORED):
        raise ParseError(f"mode must be '{CLASSICAL}' or '{COLORED}'")
    mode = mode_rest[0]
    count = _keyed_int(cursor, "points")
    if count < 1:
        raise ParseError("point count must be positive")
    coords: dict[int, Point] = {}
    for _ in range(count):
        tokens = cursor.next("point line")
        idx = _int(tokens[0], "point index")
        if len(tokens) < 2 or tokens[1] != ":":
            raise ParseError(f"expected ':' after point index {_num(idx)}")
        if idx in coords:
            raise ParseError(f"point {_num(idx)} defined twice")
        if not 0 <= idx < count:
            raise ParseError(
                f"point index {_num(idx)} out of range 0..{count - 1}"
            )
        point = tuple(_rat(t, "coordinate") for t in tokens[2:])
        if len(point) != d:
            raise ParseError(
                f"point {idx} has {len(point)} coordinates, expected {_num(d)}"
            )
        coords[idx] = point
    points = tuple(coords[i] for i in range(count))

    coloring = None
    peek = cursor.peek()
    if peek and peek[0] == "colors":
        n_classes = _keyed_int(cursor, "colors")
        if n_classes < 1:
            raise ParseError("colors count must be positive")
        classes = []
        for ci in range(n_classes):
            tokens = cursor.next("color class line")
            if tokens[0] != f"C{ci}":
                raise ParseError(f"expected class label C{ci}, got {excerpt(tokens[0])}")
            indices = _indices_after_colon(tokens[1:], f"class C{ci}")
            classes.append(_sorted_unique(indices, f"class C{ci}"))
        coloring = tuple(classes)

    mu: tuple[int, ...] = ()
    peek = cursor.peek()
    if peek and peek[0] == "mu":
        tokens = cursor.next("mu line")
        mu = _sorted_unique(_indices_after_colon(tokens[1:], "mu"), "mu")
    cursor.done()

    config = Configuration(d=d, r=r, points=points, mode=mode, coloring=coloring, mu=mu)
    validate_configuration(config)
    return config


def serialize_configuration(config: Configuration) -> str:
    """Canonical ``tvpm-config v1`` text for a valid configuration."""
    validate_configuration(config)
    out = [
        "tvpm-config v1",
        f"d {config.d}",
        f"r {config.r}",
        f"mode {config.mode}",
        f"points {len(config.points)}",
    ]
    for i, p in enumerate(config.points):
        out.append(f"{i} : " + " ".join(format_scalar(c) for c in p))
    if config.coloring is not None:
        out.append(f"colors {len(config.coloring)}")
        for ci, cls in enumerate(config.coloring):
            out.append(f"C{ci} : " + " ".join(map(str, cls)))
    if config.mu:
        out.append("mu : " + " ".join(map(str, config.mu)))
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> PlusMinusCertificate:
    """Parse ``tvpm-cert v1`` text; every standalone invariant is enforced."""
    cursor = _Cursor(text)
    header = cursor.next("header")
    if header != ["tvpm-cert", "v1"]:
        raise ParseError(f"bad header: {excerpt(' '.join(header))}")
    d = _keyed_int(cursor, "d")
    r = _keyed_int(cursor, "r")
    rainbow_rest = _keyed(cursor, "rainbow")
    if rainbow_rest not in (["0"], ["1"]):
        raise ParseError("rainbow flag must be 0 or 1")
    rainbow = rainbow_rest == ["1"]
    n_blocks = _keyed_int(cursor, "blocks")
    if n_blocks != r:
        raise ParseError(f"blocks count {_num(n_blocks)} does not match r {_num(r)}")
    blocks = []
    for j in range(n_blocks):
        tokens = cursor.next("block line")
        if tokens[0] != f"B{j}":
            raise ParseError(f"expected block label B{j}, got {excerpt(tokens[0])}")
        blocks.append(_indices_after_colon(tokens[1:], f"block B{j}"))
    coefficients: dict[int, Fraction] = {}
    while True:
        peek = cursor.peek()
        if not peek or peek[0] != "coeff":
            break
        tokens = cursor.next("coeff line")
        if len(tokens) != 4 or tokens[2] != ":":
            raise ParseError(f"bad coeff line: {excerpt(' '.join(tokens))}")
        idx = _int(tokens[1], "coeff index")
        if idx in coefficients:
            raise ParseError(f"coefficient for vertex {_num(idx)} given twice")
        coefficients[idx] = _rat(tokens[3], "coefficient")
    b_tokens = _keyed(cursor, "b")
    point_b = tuple(_rat(t, "b coordinate") for t in _values(b_tokens, "b"))
    beta = _single_rat(cursor, "beta")
    w_tokens = _keyed(cursor, "w")
    w = tuple(_rat(t, "w coordinate") for t in _values(w_tokens, "w"))
    alpha = _single_rat(cursor, "alpha")
    cursor.done()

    if len(point_b) != d:
        raise ParseError(f"b has {len(point_b)} coordinates, header says d={_num(d)}")
    if len(w) != d:
        raise ParseError(f"w has {len(w)} coordinates, header says d={_num(d)}")
    cert = PlusMinusCertificate(
        blocks=tuple(blocks),
        coefficients=coefficients,
        point_b=point_b,
        beta=beta,
        hyperplane=Hyperplane(w, alpha),
        rainbow=rainbow,
    )
    validate_certificate_structure(cert)
    return cert


def _values(tokens: list[str], what: str) -> list[str]:
    if not tokens or tokens[0] != ":":
        raise ParseError(f"expected ':' in {what} line")
    if not tokens[1:]:
        raise ParseError(f"{what} line has no values")
    return tokens[1:]


def _single_rat(cursor: _Cursor, key: str) -> Fraction:
    values = _values(_keyed(cursor, key), key)
    if len(values) != 1:
        raise ParseError(f"{key} line takes exactly one value")
    return _rat(values[0], key)


def serialize_certificate(cert: PlusMinusCertificate) -> str:
    """Canonical ``tvpm-cert v1`` text for a structurally valid certificate.

    A certificate holding a number over the int-string limit is refused
    with a ParseError, since its text could not be parsed back.
    """
    validate_certificate_structure(cert)
    try:
        return _certificate_text(cert)
    except ValueError as exc:
        raise ParseError(f"certificate not written: it holds {exc}") from None


def _certificate_text(cert: PlusMinusCertificate) -> str:
    out = [
        "tvpm-cert v1",
        f"d {len(cert.point_b)}",
        f"r {len(cert.blocks)}",
        f"rainbow {1 if cert.rainbow else 0}",
        f"blocks {len(cert.blocks)}",
    ]
    for j, block in enumerate(cert.blocks):
        out.append(f"B{j} : " + " ".join(map(str, block)))
    for idx in sorted(cert.coefficients):
        out.append(f"coeff {idx} : {format_scalar(cert.coefficients[idx])}")
    out.append("b : " + " ".join(format_scalar(c) for c in cert.point_b))
    out.append(f"beta : {format_scalar(cert.beta)}")
    out.append("w : " + " ".join(format_scalar(c) for c in cert.hyperplane.w))
    out.append(f"alpha : {format_scalar(cert.hyperplane.alpha)}")
    return "\n".join(out) + "\n"
