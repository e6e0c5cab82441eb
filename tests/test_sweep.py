"""The seeded sweep (``tests/sweep.py``), run in-process: every family's canonical text,
recomputed, has the sha256 pinned for it, and every matrix of its cases prints the same
text before and after its entries are built."""

import pytest

from riordan.triangles import RiordanMatrix

from sweep import FAMILIES, SWEEP_DIGESTS, cases, digest


def test_every_family_has_one_pinned_digest():
    names = [family.name for family in FAMILIES]
    assert len(set(names)) == len(names) == 8
    assert sorted(SWEEP_DIGESTS) == sorted(names)


@pytest.mark.parametrize("family", FAMILIES, ids=[family.name for family in FAMILIES])
def test_sweep_family_matches_its_digest(family):
    assert digest(family) == SWEEP_DIGESTS[family.name]


@pytest.mark.parametrize("family", FAMILIES, ids=[family.name for family in FAMILIES])
def test_a_matrix_prints_the_same_before_and_after_its_entries_are_built(family):
    # printed before its entries are read, a matrix formats one kernel run's integers; after,
    # its Fractions: the two texts are the same bytes, for a constructed matrix and for the
    # unbuilt matrices that inverse and @ return
    for f, g, _, depth in cases(family):
        matrix = RiordanMatrix(f, g, depth)
        for t in (matrix, matrix.inverse(), matrix @ RiordanMatrix(g, f, depth)):
            unbuilt = [t.to_json(), t.to_csv(), t.to_pretty()]
            assert "entries" not in t.__dict__
            t.entries
            assert [t.to_json(), t.to_csv(), t.to_pretty()] == unbuilt
