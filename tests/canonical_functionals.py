"""The walk axes and oracle directions in canonical form: the reference the
plain functionals of ``tvpm.solver._walk_keys`` and
``tvpm.verifier._directions`` are checked against.

Here every planar cross product and every oracle direction is divided by
the gcd of its entries and signed so that its first nonzero entry is
positive; zero ones and repeats are dropped, and so are the walk's unit
normals, whose values are a coordinate's.  A ``d = 1`` walk has the
nonconstant coordinates and their pairwise sums and differences.  The
package reads each functional only through the order and ties of the
points on it, the same on a reversed one, so both forms must list the same
partitions and drop the same ones.
"""

from __future__ import annotations

from itertools import combinations, compress
from math import gcd, lcm


def canonical_walk_keys(vectors, weights) -> list[list[int]]:
    """The search walk's axes at the points ``H_t / N_t``: the nonconstant
    coordinates, then, on vectors of length 3, ``canonical_normals``, and
    on any other length the sum and then the difference of every pair of
    coordinates, each an integer over one common multiple of the
    weights."""
    common = lcm(*weights)
    multiples = [common // w for w in weights]
    rows = [[h * m for h in vector] for vector, m in zip(vectors, multiples)]
    varying = [column.count(column[0]) < len(column) for column in zip(*rows)]
    coordinates = [list(compress(row, varying)) for row in rows]
    if len(vectors[0]) == 3:
        normals = canonical_normals(vectors)
        return [
            key + [m * (a * x + b * y + c * z) for a, b, c in normals]
            for key, m, (x, y, z) in zip(coordinates, multiples, vectors)
        ]
    keys = []
    for key in coordinates:
        pairs = list(combinations(key, 2))
        keys.append(key + [a + b for a, b in pairs] + [a - b for a, b in pairs])
    return keys


def canonical_normals(vectors) -> list[tuple[int, int, int]]:
    """The cross products ``H_s x H_t`` for ``s < t``, each primitive with
    its first nonzero entry positive, without zeros, repeats or the three
    unit vectors."""
    seen = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    normals = []
    for (x, y, z), (u, v, w) in combinations(vectors, 2):
        a, b, c = y * w - z * v, z * u - x * w, x * v - y * u
        g = gcd(a, b, c)
        if not g:
            continue
        if a < 0 or not a and (b < 0 or not b and c < 0):
            g = -g
        normal = (a // g, b // g, c // g)
        if normal not in seen:
            seen.add(normal)
            normals.append(normal)
    return normals


def canonical_directions(points) -> list[tuple[int, ...]]:
    """The coordinate axes, then the normal of ``P_t - P_s`` in the plane
    of each pair of axes, for each pair of points ``s < t``, each primitive
    with its first nonzero entry positive, without zeros or repeats, the
    first of equal directions kept."""
    d = len(points[0])
    vectors = [[int(m == a) for m in range(d)] for a in range(d)]
    for a, b in combinations(range(d), 2):
        for ps, pt in combinations(points, 2):
            v = [0] * d
            v[a], v[b] = ps[b] - pt[b], pt[a] - ps[a]
            vectors.append(v)
    directions: dict[tuple[int, ...], None] = {}
    for v in vectors:
        g = gcd(*v)
        if g:
            if next(c for c in v if c) < 0:
                g = -g
            directions.setdefault(tuple(c // g for c in v), None)
    return list(directions)
