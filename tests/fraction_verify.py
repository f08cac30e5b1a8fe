"""Test-only reference: ``verify_certificate`` over ``Fraction``.

This is ``tvpm.verifier.verify_certificate`` as it was before it moved its
arithmetic into integers: each block's affine combination, its coefficient
sum and every point's ``<p, w> - alpha`` are summed in ``Fraction``s.  It
shares only ``VerifyResult`` with the package.  Comparing ``reference_verify``
with ``verify_certificate`` on the same certificate checks that the integer
form accepts exactly what the rational one accepts, and rejects the rest
for the same reason.
"""

from __future__ import annotations

from tvpm.linalg import ZERO, dot
from tvpm.model import Configuration, PlusMinusCertificate
from tvpm.verifier import VerifyResult


def _reject(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def reference_verify(
    config: Configuration, cert: PlusMinusCertificate
) -> VerifyResult:
    """The same checks, in the same order, with the same reasons as
    ``tvpm.verifier.verify_certificate``."""
    # No hyperplane (the field's default) has no dimension either.
    w = () if cert.hyperplane is None else cert.hyperplane.w
    if len(cert.point_b) != config.d or len(w) != config.d:
        return _reject("dimension-mismatch")
    if len(cert.blocks) != config.r:
        return _reject("block-count-mismatch")
    n = len(config.points)
    seen: set[int] = set()
    for block in cert.blocks:
        if not block:
            return _reject("block-empty")
        for i in block:
            if not 0 <= i < n:
                return _reject("index-out-of-range")
            if i in seen:
                return _reject("blocks-not-disjoint")
            seen.add(i)
    if set(cert.coefficients) != seen:
        return _reject("coefficient-key-mismatch")
    for block in cert.blocks:
        combo = [ZERO] * config.d
        total = ZERO
        for i in block:
            c = cert.coefficients[i]
            total += c
            if c:
                for m in range(config.d):
                    combo[m] += c * config.points[i][m]
        if tuple(combo) != cert.point_b:
            return _reject("affine-combination-mismatch")
        if total != 1:
            return _reject("affine-sum-mismatch")
    members = set(config.mu)
    for i in seen:
        c = cert.coefficients[i]
        if i in members:
            if c > 0:
                return _reject("sign-violation")
        elif c < 0:
            return _reject("sign-violation")
    if cert.rainbow:
        if config.coloring is None:
            return _reject("rainbow-without-coloring")
        for cls in config.coloring:
            cls_set = set(cls)
            for block in cert.blocks:
                if len(cls_set.intersection(block)) > 1:
                    return _reject("rainbow-violation")
    alpha = cert.hyperplane.alpha
    if all(v == 0 for v in w):
        return _reject("hyperplane-not-separating")
    for i, p in enumerate(config.points):
        s = dot(p, w) - alpha
        if i in members:
            if s >= 0:
                return _reject("hyperplane-not-separating")
        elif s <= 0:
            return _reject("hyperplane-not-separating")
    if cert.beta <= 0:
        return _reject("beta-not-positive")
    if cert.beta * (dot(cert.point_b, w) - alpha) != 1:
        return _reject("beta-mismatch")
    return VerifyResult(True)
