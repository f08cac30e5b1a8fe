"""Seeded inputs, call plans and correctness gates of the three workloads.

Inputs are generated here rather than imported from ``tests/gen.py``: the
construction is the same as ``separable_configuration`` there (same seed
string, same draws), but a later edit to the test helpers cannot change a
workload.  ``pinned.json`` holds the SHA-256 of the reference seed's instance
set, and every run recomputes it before measuring.

A call is one top-level request timed by the benchmark: ``run`` makes it and
``check`` judges its output afterwards, outside the timed region, returning
``None`` or the reason it is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

NUMERATOR_RANGE = 40
DENOMINATORS = (1, 2, 3, 4, 5, 6)

# (d, r, |mu|, colored).  Each search workload cycles through its pattern, so
# the pattern fixes the mix of cells in every stretch of calls.
#
# search-lp: LP-bound cells; solver.hulls_intersect's LPs are about three
# quarters of a solve and the separation LP about a tenth more.  (3, 3, 2) is
# left out: one instance costs 0.08-3 s, so a 30 s run holds too few of them
# for its percentiles to repeat from seed to seed.
#
# search-enum: enumeration-bound cells in d = 1, where the bounding-box test
# rejects every partition but the answer, so one search LP runs per solve.
# Four plain calls to one colored: the colored cell's rainbow pruning makes
# its search shallow, so its LPs weigh more, and at this share p50 and p90
# both fall inside the plain cluster rather than on the gap between clusters.
SEARCH_PATTERNS = {
    "search-lp": ((2, 3, 2, False), (4, 2, 1, False)),
    "search-enum": ((1, 5, 2, False),) * 4 + ((1, 5, 3, True),),
}
# Instances per set; a run that outlasts the set starts it again.
SEARCH_INSTANCES = 1000
# Rounds of the cli-oracle plan; each round has its own generated pair.
CLI_ROUNDS = 40
CLI_CELL = (2, 3, 2)

WORKLOADS = ("search-lp", "search-enum", "cli-oracle")
# Inputs and certificates are written under this directory of the checkout.
WORK_DIR = ".perfbench-work"
FIXTURES = ("line3.txt", "line3.cert", "colored_plane7.txt", "colored_plane7.cert")


# --- instance generation -----------------------------------------------------


def config_text(seed: str, d: int, r: int, mu_size: int, colored: bool) -> str:
    """Canonical ``tvpm-config v1`` text of one separable configuration."""
    rng = random.Random(f"{seed}-{d}-{r}-{mu_size}-{int(colored)}")
    n = (r - 1) * (d + 1) + 1
    points = [
        tuple(
            Fraction(
                rng.randint(-NUMERATOR_RANGE, NUMERATOR_RANGE),
                rng.choice(DENOMINATORS),
            )
            for _ in range(d)
        )
        for _ in range(n)
    ]
    mu = tuple(sorted(rng.sample(range(n), mu_size))) if mu_size else ()
    points = _separate(points, mu, rng)
    lines = [
        "tvpm-config v1",
        f"d {d}",
        f"r {r}",
        f"mode {'colored' if colored else 'classical'}",
        f"points {n}",
    ]
    lines += [f"{i} : " + " ".join(map(str, p)) for i, p in enumerate(points)]
    if colored:
        classes = _random_coloring(rng, n, r)
        lines.append(f"colors {len(classes)}")
        lines += [f"C{ci} : " + " ".join(map(str, c)) for ci, c in enumerate(classes)]
    if mu:
        lines.append("mu : " + " ".join(map(str, mu)))
    return "\n".join(lines) + "\n"


def _separate(points, mu, rng):
    """Translate the marked points along a random direction until a
    hyperplane strictly separates them from the rest."""
    if not mu or len(mu) == len(points):
        return points
    d = len(points[0])
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(w):
            break
    norm2 = sum(c * c for c in w)
    marked = set(mu)
    values = [sum(p[k] * w[k] for k in range(d)) for p in points]
    top = max(values[i] for i in marked)
    bottom = min(values[i] for i in range(len(points)) if i not in marked)
    k = (top - bottom) // norm2 + 1
    shifted = list(points)
    for i in marked:
        shifted[i] = tuple(points[i][j] - k * w[j] for j in range(d))
    return shifted


def _random_coloring(rng, n, r):
    indices = list(range(n))
    rng.shuffle(indices)
    classes = []
    pos = 0
    while pos < n:
        size = rng.randint(1, r - 1)
        classes.append(tuple(sorted(indices[pos : pos + size])))
        pos += size
    classes.sort()
    return classes


def instance_texts(workload: str, seed: int, fixtures: Path) -> list[str]:
    """Every input the workload hands the program, as text, in call order."""
    if workload in SEARCH_PATTERNS:
        pattern = SEARCH_PATTERNS[workload]
        return [
            config_text(f"{seed}:{i}", *pattern[i % len(pattern)])
            for i in range(SEARCH_INSTANCES)
        ]
    if workload != "cli-oracle":
        raise ValueError(f"unknown workload {workload!r}")
    texts = [(fixtures / name).read_text(encoding="utf-8") for name in FIXTURES]
    for k in range(CLI_ROUNDS):
        texts.append(config_text(f"{seed}:{k}", *CLI_CELL, False))
        texts.append(config_text(f"{seed}:{k}", *CLI_CELL, True))
    return texts


def inputs_sha256(texts: list[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


# --- calls -------------------------------------------------------------------


@dataclass
class Call:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def prepare(name: str, seed: int, root: Path) -> tuple[Path, list[str]]:
    """Write the workload's inputs into a fresh directory under ``root``;
    return it with the texts written."""
    texts = instance_texts(name, seed, root / "tests" / "fixtures")
    parent = root / WORK_DIR
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=parent))
    if name in SEARCH_PATTERNS:
        (workdir / "instances.json").write_text(json.dumps(texts), encoding="utf-8")
    else:
        names = list(FIXTURES) + [f"{t}{k}.txt" for k in range(CLI_ROUNDS) for t in "pc"]
        for file_name, text in zip(names, texts):
            (workdir / file_name).write_text(text, encoding="utf-8")
    return workdir, texts


def discard(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()


class Workload:
    """A workload loaded from the directory ``prepare`` wrote, ready for its
    first call; ``calls()`` yields its closed-loop plan without end."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        if name in SEARCH_PATTERNS:
            from tvpm import parse_configuration

            texts = json.loads((workdir / "instances.json").read_text(encoding="utf-8"))
            self.configs = [parse_configuration(t) for t in texts]
        else:
            import tvpm.cli  # noqa: F401

    @property
    def round_length(self) -> int:
        """Calls in one cycle of the plan; runs end on a cycle boundary, so
        every run holds the plan's mix exactly."""
        if self.name in SEARCH_PATTERNS:
            return len(SEARCH_PATTERNS[self.name])
        return sum(1 for _ in self._cli_round(0))

    def calls(self) -> Iterator[Call]:
        if self.name in SEARCH_PATTERNS:
            return self._search_calls()
        return self._cli_calls()

    def _search_calls(self) -> Iterator[Call]:
        from tvpm import plus_minus_partition, verify_certificate

        for i in count():
            config = self.configs[i % len(self.configs)]

            def check(cert, config=config):
                result = verify_certificate(config, cert)
                return None if result.accepted else f"certificate rejected: {result.reason}"

            yield Call(
                f"solve {i % len(self.configs)}",
                lambda config=config: plus_minus_partition(config),
                check,
            )

    def _cli_calls(self) -> Iterator[Call]:
        for k in count():
            yield from self._cli_round(k % CLI_ROUNDS)

    def _cli_round(self, k: int) -> Iterator[Call]:
        """One round of 17 calls: the fixtures and the k-th
        generated pair, each solved, verified and listed by the oracle, and
        three commands that must fail with a documented exit code.

        The mix fixes where the percentiles fall.  Eight calls of a round
        take under 2 ms (the verifies and the refusals) and eight take over
        3 ms, so p50 is the median of ``oracle line3``, a fixed input; p90
        falls among the oracle runs of colored_plane7 and the colored pair."""
        w = self.workdir
        line3, plane7 = str(w / "line3.txt"), str(w / "colored_plane7.txt")
        plain, colored = str(w / f"p{k}.txt"), str(w / f"c{k}.txt")
        l_cert, k_cert = str(w / "l.cert"), str(w / "k.cert")
        p_cert, q_cert, c_cert = (str(w / f"{t}{k}.cert") for t in "pqc")

        yield _cli("solve", line3, "--output", l_cert, check=_golden(l_cert, w / "line3.cert"))
        yield _cli("verify", line3, "--cert", l_cert)
        yield _cli("oracle", line3, check=_listed(l_cert))
        yield _cli("solve", line3, "--mode", "classical", expect=2)
        yield _cli("solve", line3, "--mode", "colored", expect=2)
        yield _cli(
            "solve", plane7, "--mode", "colored", "--output", k_cert,
            check=_golden(k_cert, w / "colored_plane7.cert"),
        )
        yield _cli("verify", plane7, "--cert", k_cert)
        yield _cli("verify", plane7, "--cert", l_cert, expect=5)
        yield _cli("oracle", plane7, check=_listed(k_cert))
        yield _cli("solve", plain, "--output", p_cert)
        yield _cli("verify", plain, "--cert", p_cert)
        yield _cli("solve", plain, "--mode", "corollary", "--output", q_cert)
        yield _cli("verify", plain, "--cert", q_cert)
        yield _cli("oracle", plain, check=_listed(p_cert, q_cert))
        yield _cli("solve", colored, "--mode", "colored", "--output", c_cert)
        yield _cli("verify", colored, "--cert", c_cert)
        yield _cli("oracle", colored, check=_listed(c_cert))


def _cli(command: str, config: str, *rest: str, expect: int = 0, check=None) -> Call:
    argv = [command, "--input", config, *rest]

    def run():
        from tvpm.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def judge(result):
        code, stdout = result
        if code != expect:
            return f"exit {code}, expected {expect}"
        return check(stdout) if check is not None else None

    return Call(" ".join(argv), run, judge)


def _golden(written: str, golden: Path):
    """The certificate written must match the committed one byte for byte."""

    def check(_stdout: str) -> Optional[str]:
        if Path(written).read_bytes() != golden.read_bytes():
            return f"{Path(written).name} differs from {golden.name}"
        return None

    return check


def _listed(*certs: str):
    """The oracle's listing must hold the blocks of every named certificate."""

    def check(stdout: str) -> Optional[str]:
        listing = set(stdout.splitlines())
        for cert in certs:
            blocks = [
                "{" + ",".join(line.split(":")[1].split()) + "}"
                for line in Path(cert).read_text(encoding="utf-8").splitlines()
                if line.startswith("B")
            ]
            if " ".join(blocks) not in listing:
                return f"oracle listing lacks the blocks of {Path(cert).name}"
        return None

    return check
