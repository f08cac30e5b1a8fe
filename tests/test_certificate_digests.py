"""Certificate bytes pinned by digest on generated configurations.

The two golden fixtures pin one plain and one colored solve.  These digests
pin fifteen more, so that any change to the search or to the LP kernel that
moves a single chosen partition, coefficient or hyperplane fails here.  The
first twelve cover the cells the benchmark runs and were recorded with the
rational (``Fraction``) simplex kernel; the last three, at (1, 6, 2) and
colored (1, 7, 3), sit where box pruning of the partition walk cuts the most
and were recorded before the box test moved into the walk.
"""

from __future__ import annotations

import hashlib

import pytest

import gen
from tvpm import plus_minus_partition, serialize_certificate

# (d, r, |mu|, colored, seed) -> SHA-256 of the serialized certificate.
DIGESTS = {
    (2, 3, 2, False, 0): "9336861371784c22af15c5ba91f1589eca61626f8a59e9f5fe5fb93779cb8bb0",
    (2, 3, 2, False, 1): "7ee6e6afa31d4b9d4614099741ac33f8d9a6e4d83fee699a84f7c12481664e0f",
    (2, 3, 2, False, 2): "5968a5dd9ef57576ad1f53acee86b94814a0b192fa54431d93cf018919aa7fc5",
    (4, 2, 1, False, 0): "2fea3b7a2b82bdd457837800e342483e7c8290f26265085b1919716b9c852d28",
    (4, 2, 1, False, 1): "657c83b3743691d59f304d21b225630328d458a623a061b3b317cdf33c74f8c9",
    (4, 2, 1, False, 2): "7f74bc0cdf0e70df2bd6b28ac1c5c044100a5606efbdc2f1bb8da07acdf56ad4",
    (1, 5, 2, False, 0): "fba06f57762dd6338b75ba59be165f789f4c3961d26d5f5956f419019d64d6a9",
    (1, 5, 2, False, 1): "27b382ea8c7ca0b09f8662e8ce9ed10e69d3fd9e0eb3e08de5514d3a27f221d4",
    (1, 5, 2, False, 2): "fa5a5d5f0d5d26e6171c61a9d4603fa38e0f11bdf7bf4d26d35961a72ac6a08e",
    (1, 5, 3, True, 0): "b654979314e9e45e5245f67dc5306f171fcdcd17257d6d4c0a68b33469268dd8",
    (1, 5, 3, True, 1): "2691f72f1308ff2b66f17099367ee542c92b2e5aafa4fba3d7fa313df1be8c32",
    (1, 5, 3, True, 2): "dd725fe6f75362afda85139030b6c0cce423a7218eb309af0132bd2b7d4d904d",
    (1, 6, 2, False, 0): "9024ecfdf237ebbefd116a306b0b4b151aa2fa928e6d7f9a5a813ff15759938b",
    (1, 6, 2, False, 1): "5e515763336c7eeecba33313394e895d387434d77da87c6304723a51706b0c4a",
    (1, 7, 3, True, 0): "c4e0d08d877acab4cd2b6f1d9d637f8bfc44b57a720170e3850632e04fd679f6",
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=str)
def test_certificate_bytes_are_unchanged(case):
    d, r, mu_size, colored, seed = case
    config = gen.separable_configuration(seed, d, r, mu_size, colored)
    text = serialize_certificate(plus_minus_partition(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]
