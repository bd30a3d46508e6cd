"""Brute-truncation solver: bookkeeping and a small end-to-end check."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.jets import column_count, field_row, harvest_kernel, \
    jet_unknowns, projected_kernel, realify_row
from crrigid.oracle import deformation_residual
from crrigid.scalars import Scalar

from closed_forms import cubic_deformation, in_span, realified
from test_linalg import field_elements

I = Scalar(0, 0, 1)


def test_jet_unknowns_counts():
    # plain degree m + n <= 4, (m, n) != (0, 0), three components
    keys = jet_unknowns(3, (1, 2), 4)
    per_comp = [(m, n) for m in range(5) for n in range(5)
                if 0 < m + n <= 4]
    assert len(keys) == 3 * len(per_comp) == 42
    assert ("jet", 0, 1, 0) in keys
    assert ("jet", 2, 0, 2) in keys
    assert ("jet", 0, 0, 0) not in keys


def test_jet_unknowns_by_weight_bound():
    keys = jet_unknowns(3, (1, 2), 6, by_weight=True)
    assert all(m + 2 * n <= 6 for (_, _, m, n) in keys)
    assert ("jet", 0, 6, 0) in keys          # weight 6, plain degree 6
    assert ("jet", 0, 0, 3) in keys          # weight 6, plain degree 3
    assert ("jet", 0, 5, 1) not in keys      # weight 7
    degrees = [m + n for (_, _, m, n) in keys]
    assert degrees == sorted(degrees)


def test_realify_rows_splits_re_im():
    keys = [("jet", 0, 1, 0), ("jet", 0, 0, 1)]
    col = {k: i for i, k in enumerate(keys)}
    rows = realify_row({keys[0]: 1 + I, keys[1]: Scalar(2)}, col)
    # a complex row gives two real rows over (re, im) column pairs
    assert len(rows) == 2
    for vec in [{0: Scalar(0), 1: Scalar(1), 2: Scalar(1), 3: Scalar(0)}]:
        vals = []
        for r in rows:
            acc = Scalar(0)
            for c, v in r.items():
                acc = acc + v * vec.get(c, Scalar(0))
            vals.append(acc)
        # lam_1 = i, lam_2 = 1: row value (1+i)i + 2 = 1 + i
        assert vals == [Scalar(1), Scalar(1)]


@given(st.sampled_from(["gaussian", "sqrt2", None]).flatmap(
    lambda shape: st.dictionaries(
        st.tuples(st.sampled_from(["jet", "jetbar"]), st.integers(0, 2)),
        field_elements(shape), max_size=6)))
@settings(max_examples=150, deadline=None)
def test_realify_row_matches_scalar_parts(entries):
    """Each real row is its Scalar reference times one positive factor; a
    row may hold the jet and the jetbar tag of one slot."""
    col = {("jet", 0, k): k for k in range(3)}
    row = {(tag, 0, k): v for (tag, k), v in entries.items()}
    got = realify_row(row, col)
    want = [r for r in realified(row, col) if r]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert set(g) == set(w) and all(g.values())
        kinds = {type(v) for v in g.values()}
        assert kinds in ({int}, {tuple})
        if kinds == {tuple}:
            assert all(len(v) == 4 and v[2:] == (0, 0) for v in g.values())
        g = {c: Scalar(*v[:2]) if kinds == {tuple} else Scalar(v)
             for c, v in g.items()}
        factor = g[min(g)] / w[min(w)]
        assert factor.sign() > 0
        assert g == {c: v * factor for c, v in w.items()}


def test_projected_dim():
    kern = [{0: Scalar(1), 5: Scalar(2)},
            {5: Scalar(1)},
            {1: Scalar(1), 5: Scalar(3)}]
    assert projected_kernel(kern, 2) == [{0: Scalar(1)}, {1: Scalar(1)}]
    # vectors vanishing on the kept columns contribute nothing
    kern = [{2: Scalar(1), 5: Scalar(2)},
            {5: Scalar(1)},
            {3: Scalar(1), 5: Scalar(3)}]
    assert projected_kernel(kern, 2) == []


def test_harvest_kernel_on_hand_made_rows():
    lead = [("jet", 0, 1, 0), ("jet", 0, 0, 1)]
    rest = [("jet", 0, 2, 0)]
    one = Scalar(1)
    res = harvest_kernel(
        lead, rest,
        [(1, [{lead[0]: one},                      # lam_0 = 0
              {rest[0]: one, lead[1]: -one}]),     # lam_rest = lam_1
         (2, [{lead[1]: one, ("jetbar", 0, 0, 1): -one}])])  # Im lam_1 = 0
    # lam_0 is not free at order 1
    assert res.dims == {1: 2, 2: 1}
    assert res.dim == 1 and not res.stabilized
    # Re lam_1 = Re lam_rest, projected onto the leading tags
    assert res.kernel_real == [{2: one}]
    assert res.jet_keys == lead


def test_residual_annihilated_by_known_deformation(cache):
    """The one-dimensional kernel of the cubic example is a genuine
    solution: its jet assignment kills every harvested residual row."""
    spec = cache.spec("example-6-3")
    residual = deformation_residual(spec.H, spec.source, spec.target, 10)
    # V = (i z, i z^2 / 3, 0)
    third = Scalar(0, 0, 1) / 3
    assignment = {("jet", 0, 1, 0): I, ("jet", 1, 2, 0): third,
                  ("jetbar", 0, 1, 0): -1 * I,
                  ("jetbar", 1, 2, 0): third.conjugate()}
    for exp in residual.coeffs:
        row = residual.coefficient_row(exp)
        value = sum((c * assignment[k] for k, c in row.items()
                     if k in assignment), Scalar(0))
        assert value.is_zero(), exp


def test_oracle_dimension_on_cubic_example(cache):
    res = cache.oracle("example-6-3")
    assert res.dim == 1
    assert res.stabilized
    # kernel contains the known solution (i z, i z^2 / 3, 0)
    vec = field_row(cubic_deformation(cache.spec("example-6-3").H.frame))
    assert in_span(vec, res.kernel_real, column_count(res.jet_keys))
