"""The seeded sweep (``tests/sweep.py``), run in-process: every family's canonical text,
recomputed, has the sha256 pinned for it."""

import pytest

from sweep import FAMILIES, SWEEP_DIGESTS, digest


def test_every_family_has_one_pinned_digest():
    names = [family.name for family in FAMILIES]
    assert len(set(names)) == len(names) == 8
    assert sorted(SWEEP_DIGESTS) == sorted(names)


@pytest.mark.parametrize("family", FAMILIES, ids=[family.name for family in FAMILIES])
def test_sweep_family_matches_its_digest(family):
    assert digest(family) == SWEEP_DIGESTS[family.name]
