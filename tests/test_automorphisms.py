"""Infinitesimal CR automorphism spaces of the target germs."""

from crrigid.geometry import Target
from crrigid.jets import column_count, field_row
from crrigid.linalg import rank_of
from crrigid.oracle import infinitesimal_automorphisms

from closed_forms import hyperquadric_hol0_basis, in_span


def test_hyperquadric_dimensions_match_closed_form():
    for eps in (1, -1):
        res = infinitesimal_automorphisms(Target.hyperquadric(eps, 16), keq=7)
        assert res.stabilized
        assert res.dim == 10
        rows = [field_row(V, res.jet_keys)
                for V in hyperquadric_hol0_basis(eps)]
        ncols = column_count(res.jet_keys)
        assert rank_of(rows, ncols) == 10
        for row in rows:
            assert in_span(row, res.kernel_real, ncols)


def test_rigid_targets_have_no_automorphisms(cache):
    for entry in ("example-6-2", "example-6-3"):
        res = cache.automorphisms(entry)
        assert res.stabilized
        assert res.dim == 0


def test_two_dimensional_target_has_dimension_one(cache):
    res = cache.automorphisms("target-6-4")
    assert res.stabilized
    assert res.dim == 1
