"""Brute-truncation solver: bookkeeping, the residual, the mirror
harvest, and a small end-to-end check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.bindings import Bindings
from crrigid.corpus import EXPECTATIONS
from crrigid.geometry import Target, target_vars, zct_frame
from crrigid.jets import JET4, bar_key, column_count, coordinates, \
    field_row, harvest_kernel, jet_unknowns, realify_row
from crrigid.linalg import Eliminator
from crrigid.linseries import LinSeries
from crrigid.maps import pull_back
from crrigid.oracle import automorphism_residual, deformation_residual, \
    direct_solve, infinitesimal_automorphisms, jet_residual, mirror_half, \
    truncated_solve
from crrigid.parser import parse_problem
from crrigid.scalars import SQRT2, Scalar
from crrigid.series import Series, frame

from closed_forms import cubic_deformation, in_span, realified
from test_linalg import field_elements
from test_series import series_elems

I = Scalar(0, 0, 1)


def test_jet_unknowns_counts():
    # unit weights: plain degree m + n <= 4, (m, n) != (0, 0), three
    # components
    keys = jet_unknowns(3, (1, 1), 4)
    per_comp = [(m, n) for m in range(5) for n in range(5)
                if 0 < m + n <= 4]
    assert len(keys) == 3 * len(per_comp) == 42
    assert ("jet", 0, 1, 0) in keys
    assert ("jet", 2, 0, 2) in keys
    assert ("jet", 0, 0, 0) not in keys


def test_jet_unknowns_by_weight_bound():
    keys = jet_unknowns(3, (1, 2), 6)
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


@pytest.mark.parametrize("terms", [
    [],
    [(0, (1, 0), Scalar(1))],
    [(0, (1, 0), 1 + I), (2, (0, 1), I), (1, (2, 1), Scalar(-3) / 7)],
    [(1, (0, 2), SQRT2), (2, (4, 0), Scalar(1, 0, 0, 1)),
     (0, (1, 1), Scalar(0, 2, 5, 0))],
])
def test_coordinates_invert_field_row(terms):
    """coordinates(field_row(V)) gives back V's nonzero 4-jet
    coefficients, keyed by tag index in ascending order."""
    vf = frame("z", "w", order=4)
    V = [Series(vf, {e: c for j, e, c in terms if j == comp})
         for comp in range(3)]
    got = coordinates(field_row(V))
    assert list(got) == sorted(got)
    assert got == {k: V[j].coefficient(e) for k, (_, j, *e) in enumerate(JET4)
                   if not V[j].coefficient(e).is_zero()}
    assert len(got) == len(terms)


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


# -- the jet residual -------------------------------------------------

def plain_monomial(chart, names, exp):
    """prod_i chart[names[i]]^exp[i], by plain Series powers and products."""
    m = Series.const(chart[names[0]].frame, 1)
    for v, k in zip(names, exp):
        m = m * chart[v] ** k
    return m


def per_key_residual(r_on, rb_on, holo, anti, keys):
    """The reference for :func:`jet_residual`: one full product per key
    and side, r_j times its monomial, merged by ``LinSeries.from_tags``."""
    comps = {}
    for key in keys:
        j, exp = key[1], key[2:]
        comps[key] = r_on[j] * plain_monomial(*holo, exp)
        comps[bar_key(key)] = rb_on[j] * plain_monomial(*anti, exp)
    return LinSeries.from_tags(r_on[0].frame, comps)


def assert_same_residual(got, want):
    assert type(got) is LinSeries
    assert got == want
    # each row lists its tags in the reference's order
    assert all(list(got.coeffs[e]) == list(row)
               for e, row in want.coeffs.items())


def oracle_chart(spec, frm):
    """(r_on, rb_on, holo, anti) of :func:`deformation_residual`."""
    holo, anti = chart = spec.source.chart(frm)
    r_on, rb_on = spec.target.gradient_on(pull_back(spec.H, chart))
    return r_on, rb_on, (holo, ("z", "w")), (anti, ("z", "w"))


@pytest.mark.parametrize("entry", ["example-6-2", "example-6-3"])
def test_jet_residual_equals_the_per_key_products_on_the_oracle_chart(
        cache, entry):
    spec, K = cache.spec(entry), 9
    keys = jet_unknowns(spec.target.n, (1, 2), K)
    want = per_key_residual(*oracle_chart(spec, zct_frame(K)), keys)
    assert_same_residual(
        deformation_residual(spec.H, spec.source, spec.target, K), want)


@pytest.mark.parametrize("entry", ["example-6-1", "target-6-4"])
def test_jet_residual_equals_the_per_key_products_on_a_graph_chart(
        cache, entry):
    """On the automorphism solver's chart every anti generator is a
    variable, so that side forms no product and no power table."""
    target, K = cache.spec(entry).target, 7
    n, names = target.n, target_vars(target.n)
    chart = target.graph_chart(K)
    assert chart.gens == ("w1",)
    args = (*target.gradient_on(chart), (chart, names[:n]),
            (chart, names[n:]))
    keys = jet_unknowns(n, (1,) * (n - 1) + (2,), K)
    assert_same_residual(automorphism_residual(target, K),
                         per_key_residual(*args, keys))


def test_jet_residual_drops_a_shift_past_a_cap(cache):
    """On a capped chart the shifted terms past a cap are dropped, as
    ``Series.__mul__`` drops them, and none below it."""
    spec, K = cache.spec("example-6-3"), 9
    frm = frame("z", "chi", "tau", order=K, weights=(1, 1, 2),
                caps={"z": 2, "chi": 3})
    args = oracle_chart(spec, frm)
    keys = jet_unknowns(spec.target.n, (1, 2), K)
    got = jet_residual(*args, keys)
    assert_same_residual(got, per_key_residual(*args, keys))
    assert max(e[0] for e in got.coeffs) == 2
    assert max(e[1] for e in got.coeffs) == 3


CAPPED = frame("z", "w", order=6, weights=(1, 2), caps={"z": 3})


@st.composite
def generators(draw):
    """A generator on CAPPED: a variable, a monomial with coefficient 1,
    one term with another coefficient, or a drawn series."""
    z, w = Series.variable(CAPPED, "z"), Series.variable(CAPPED, "w")
    return draw(st.sampled_from([
        z, w, z * w, Series.const(CAPPED, 1), z.scale(2), w.scale(I),
        draw(series_elems()).project(CAPPED)]))


def gradients():
    """A gradient component on CAPPED: a drawn series, or 1, z or 0,
    factors that are never taken for a shift."""
    return st.one_of(series_elems().map(lambda s: s.project(CAPPED)),
                     st.sampled_from([Series.const(CAPPED, 1),
                                      Series.variable(CAPPED, "z"),
                                      Series.zero(CAPPED)]))


@given(st.lists(gradients(), min_size=4, max_size=4),
       st.lists(generators(), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_jet_residual_equals_the_per_key_products(r, gens):
    """Only a generator of one term with coefficient 1 is taken for a
    shift, and each component keeps its own products."""
    keys = jet_unknowns(2, (1, 2), 4)
    args = (r[:2], r[2:], (Bindings(dict(zip("ab", gens[:2]))), "ab"),
            (Bindings(dict(zip("ab", gens[2:]))), "ab"))
    assert_same_residual(jet_residual(*args, keys),
                         per_key_residual(*args, keys))


# -- the mirror harvest -----------------------------------------------

#: A source that is not rigid, with terms z^a chi^b of a != b and a
#: tau-dependent term, under a map that is not an embedding.
UNBALANCED = ("vars z w; source: imag(w) = z*conj(z)"
              " + (2+i)*z^3*conj(z)^4 + (2-i)*z^4*conj(z)^3"
              " + z*conj(z)*real(w); target: hyperquadric +1;"
              " map: (z + z^2, z^2 - w*z, w);")
MAP_ENTRIES = [e for e, x in EXPECTATIONS.items() if not x.aut_only]


def ranks_by_order(residual, keys):
    """The rank of the real rows of the residual coefficients of weighted
    order <= W, for W = 0, .., the residual's order."""
    col = {k: i for i, k in enumerate(keys)}
    wdeg = residual.frame.wdeg
    elim = Eliminator(column_count(keys))
    ranks = []
    for order in range(residual.frame.order + 1):
        for exp, row in residual.coeffs.items():
            if wdeg(exp) == order:
                for r in realify_row(row, col):
                    elim.add_row(r)
        ranks.append(elim.rank)
    return ranks


@pytest.mark.parametrize("entry", MAP_ENTRIES + ["unbalanced"])
def test_mirror_half_keeps_the_real_rank_at_every_order(cache, entry):
    """The real rows at exponents (a, b, c) with a <= b span those of all
    coefficients at every weighted order; keeping only a < b loses rank
    (the rows at a = b are not conjugates of kept rows)."""
    if entry == "unbalanced":
        spec, K = parse_problem(UNBALANCED), 13
    else:
        spec, K = cache.spec(entry), 10
    residual = deformation_residual(spec.H, spec.source, spec.target, K)
    keys = jet_unknowns(spec.target.n, (1, 2), K)
    full = ranks_by_order(residual, keys)
    assert ranks_by_order(mirror_half(residual, 1), keys) == full
    strict = LinSeries(residual.frame, {
        e: row for e, row in residual.coeffs.items() if e[0] < e[1]})
    assert ranks_by_order(strict, keys) != full


@pytest.mark.parametrize("entry", ["example-6-1", "example-6-3"])
@pytest.mark.parametrize("keq", [14, 16])
def test_direct_solve_equals_a_full_harvest(cache, entry, keq):
    """The oracle's answer, false plateau order 14 included, is that of a
    harvest of every residual coefficient."""
    s = cache.spec(entry)
    full = truncated_solve(
        lambda K: deformation_residual(s.H, s.source, s.target, K),
        s.target.n, (1, 2), JET4, keq)
    got = direct_solve(s.H, s.source, s.target, keq)
    assert got.dims == full.dims
    assert got.kernel_real == full.kernel_real


#: Targets whose graph charts the mirror harvest is checked on: corpus
#: targets (target-6-4 in C^2), and problem texts for a target with
#: harmonic quadratic terms and one sheared by z1 -> z1 + (1+i) w1^2,
#: whose graph W has terms in bw1 beyond the linear one.
GRAPH_TARGETS = {
    "hyperquadric": None,
    "example-6-2": None,
    "example-6-4": None,
    "target-6-4": None,
    "harmonic-quadratic": "imag(w1) = z1*conj(z1) + z2*conj(z2)"
                          " + real(z1^2) + imag(z1*z2)",
    "r-shear": "imag(w1) = (z1 + (1+i)*w1^2)*conj(z1 + (1+i)*w1^2)"
               " + z2*conj(z2)",
}


def graph_target(cache, name):
    if name == "hyperquadric":
        return Target.hyperquadric(1, 12)
    text = GRAPH_TARGETS[name]
    if text is None:
        return cache.spec(name).target
    return parse_problem(f"vars z w; source: hyperquadric; target: {text};",
                         order=12).target


@pytest.mark.parametrize("name", sorted(GRAPH_TARGETS))
def test_mirror_half_keeps_the_real_rank_on_graph_charts(cache, name):
    """On a target's graph chart, over (z', zeta', bw1) with m = n - 1
    variables in z' and in zeta', the rows at a <= b (as tuples) span
    all at every weighted order, and those at a < b do not."""
    target, K = graph_target(cache, name), 8
    n, m = target.n, target.n - 1
    residual = automorphism_residual(target, K)
    keys = jet_unknowns(n, target.frame.weights[:n], K)
    full = ranks_by_order(residual, keys)
    assert ranks_by_order(mirror_half(residual, m), keys) == full
    strict = LinSeries(residual.frame, {
        e: row for e, row in residual.coeffs.items() if e[:m] < e[m:2 * m]})
    assert ranks_by_order(strict, keys) != full


@pytest.mark.parametrize("name", sorted(GRAPH_TARGETS))
def test_infinitesimal_automorphisms_equal_a_full_harvest(cache, name):
    """The automorphism solve's dims and canonical kernel, projected onto
    the 4-jet as ``rigidity`` reads it, are those of a harvest of every
    residual coefficient at aut orders 7-9."""
    target = graph_target(cache, name)
    n = target.n
    proj = jet_unknowns(n, (1,) * n, 4)
    for keq in (7, 8, 9):
        full = truncated_solve(lambda K: automorphism_residual(target, K), n,
                               target.frame.weights[:n], proj, keq)
        got = infinitesimal_automorphisms(target, keq, proj_order=4)
        assert got.dims == full.dims
        assert got.kernel_real == full.kernel_real
