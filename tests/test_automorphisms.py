"""Infinitesimal CR automorphism spaces of the target germs."""

from crrigid.geometry import Target
from crrigid.linalg import in_span, rank_of
from crrigid.oracle import infinitesimal_automorphisms
from crrigid.spaces import hyperquadric_hol0_basis


def _field_rows(fields, result):
    """2-jet coordinate rows of closed-form fields in the solver's basis."""
    col = {k: i for i, k in enumerate(result.jet_keys)}
    rows = []
    for V in fields:
        row = {}
        for j, comp in enumerate(V):
            for exp, c in comp.coeffs.items():
                key = ("jet", j) + exp
                if key not in col:
                    continue
                re, im = c.real_part(), c.imag_part()
                if not re.is_zero():
                    row[2 * col[key]] = re
                if not im.is_zero():
                    row[2 * col[key] + 1] = im
        rows.append(row)
    return rows


def test_hyperquadric_dimensions_match_closed_form():
    for eps in (1, -1):
        res = infinitesimal_automorphisms(Target.hyperquadric(eps, 16), keq=7)
        assert res.stabilized
        assert res.dim == 10
        basis = hyperquadric_hol0_basis(eps)
        rows = _field_rows(basis, res)
        ncols = 2 * len(res.jet_keys)
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
