from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropeci.linalg import (
    ZeroVector,
    canonical_span_rows,
    det,
    dot,
    in_span,
    int_vector,
    inverse_rows,
    is_zero,
    kernel_basis,
    primitive,
    rank,
    rational_primitive,
    saturation_basis,
    smith_with_basis,
    solve,
    solve_dot_one,
    sublattice_index,
    vadd,
    vgcd,
    vneg,
    vscale,
    vsub,
)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((0, -5)) == (0, -1)
    for v in [(0, 0), (), [0, 0, 0]]:
        with pytest.raises(ZeroVector):
            primitive(v)


# The generator definitions the C-level vector kernels replaced, kept as the
# reference they must equal entry for entry, types included.

def ref_vgcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def ref_primitive(v):
    g = ref_vgcd(v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive form")
    return tuple(x // g for x in v)


def ref_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def ref_vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ref_vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def ref_vscale(c, v):
    return tuple(c * a for a in v)


def ref_vneg(v):
    return tuple(-a for a in v)


def ref_is_zero(v):
    return all(x == 0 for x in v)


def outcome(fn, *args):
    """What a call gives: its value with the type of every entry, or the
    type of the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return "raises", type(exc)
    types = tuple(map(type, out)) if isinstance(out, tuple) else type(out)
    return out, types


# zeros are common, so zero vectors come up
KERNEL_ENTRIES = st.one_of(st.integers(-30, 30), st.just(0),
                           st.fractions(-5, 5, max_denominator=7))


@st.composite
def vector_pairs(draw, entries):
    n = draw(st.integers(0, 6))
    return tuple(tuple(draw(st.lists(entries, min_size=n, max_size=n)))
                 for _ in range(2))


@settings(max_examples=200)
@given(st.one_of(vector_pairs(st.integers(-30, 30)), vector_pairs(KERNEL_ENTRIES)),
       KERNEL_ENTRIES)
@example(((), ()), 3)
@example(((0, 0, 0), (0, 0, 0)), 0)
@example(((Fraction(0), 0), (0, Fraction(0))), Fraction(1, 2))
@example(((6, -4, 10), (0, 0, 0)), -2)
def test_vector_kernels_equal_their_generator_definitions(pair, c):
    u, v = pair
    for fn, ref, args in [(dot, ref_dot, (u, v)), (vadd, ref_vadd, (u, v)),
                          (vsub, ref_vsub, (u, v)), (vscale, ref_vscale, (c, u)),
                          (vneg, ref_vneg, (u,)), (is_zero, ref_is_zero, (u,)),
                          (vgcd, ref_vgcd, (u,)), (primitive, ref_primitive, (u,))]:
        assert outcome(fn, *args) == outcome(ref, *args), fn.__name__


def test_rational_primitive_reads_every_entry_exactly():
    assert rational_primitive((Fraction(1, 2), 1, 0)) == (1, 2, 0)
    assert rational_primitive((0.5, 1, 0)) == (1, 2, 0)
    assert rational_primitive((0.25, -0.5)) == (1, -2)
    with pytest.raises(ZeroVector):
        rational_primitive((0.0, 0))


def test_int_vector_reads_integers_exactly():
    assert int_vector((2.0, Fraction(6, 3), -4, True)) == (2, 2, -4, 1)
    assert all(type(x) is int for x in int_vector((2.0, Fraction(6, 3), True)))
    for bad in [(0.5, 0), (2, 1.9), (Fraction(3, 2),)]:
        with pytest.raises(ValueError):
            int_vector(bad)


def test_int_vector_rejects_a_string_that_spells_an_integer():
    with pytest.raises(ValueError):
        int_vector(("1",))
    with pytest.raises(ValueError):
        int_vector((1, "2"))


def test_det_and_rank():
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert det([(1, 2), (2, 4)]) == 0
    assert det([(Fraction(1, 2), 0), (0, Fraction(2, 3))]) == Fraction(1, 3)
    assert rank([(1, 2, 3), (2, 4, 6), (0, 1, 0)]) == 2
    assert rank([]) == 0


def test_solve():
    x = solve([(2, 0), (0, 4)], (6, 8))
    assert x == (3, 2)
    assert solve([(1, 1), (1, 1)], (0, 1)) is None
    # underdetermined: free variables pinned at 0
    x = solve([(1, 1, 0)], (5,))
    assert x is not None and dot((1, 1, 0), x) == 5


def test_rational_input_is_read_exactly():
    assert det([(0.5, 0), (0, 3)]) == Fraction(3, 2)
    assert rank([(0.5, 1), (1, 2)]) == 1
    assert solve([(0.5, 0.25)], (1,)) == (2, 0)
    assert inverse_rows([(Fraction(1, 2), 0), (0, Fraction(2, 3))]) == \
        ([(4, 0), (0, 3)], 2)


@pytest.mark.parametrize("call", [
    lambda: det([(1, 2, 3), (4, 5, 6)]),
    lambda: det([(1, 2), (3,)]),
    lambda: inverse_rows([(1, 2, 3), (4, 5, 6)]),
    lambda: inverse_rows([(1, 2), (3,)]),
    lambda: inverse_rows([(1, 2), (2, 4)]),
    lambda: solve([(1, 0), (0, 1)], (1,)),
    lambda: solve([(1, 0), (0, 1)], (1, 2, 3)),
    lambda: solve([(1, 0), (1,)], (1, 2)),
    lambda: solve([], (1,)),
    lambda: rank([(1, 0), (0, 1, 1)]),
    lambda: in_span([(1, 0)], (1, 0, 0)),
    lambda: in_span([(1, 0, 0)], (0, 1)),
    lambda: in_span([(1, 0), (1,)], (1, 0)),
    lambda: kernel_basis([(1, 0), (0, 1, 1)], 3),
    lambda: kernel_basis([(1, 0, 0)], 2),
    lambda: canonical_span_rows([(1, 0), (0, 1, 1)]),
])
def test_malformed_or_singular_input_raises(call):
    with pytest.raises(ValueError):
        call()


# -- the fraction-free core against Fraction Gauss–Jordan ----------------------


def ref_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return out


def ref_solve(rows, rhs):
    """Gauss–Jordan over Fractions, first nonzero pivot, free variables 0."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return tuple(x)


def ref_inverse_rows(rows):
    """Gauss–Jordan beside an identity block over Fractions, as (M, d)."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    den = 1
    for r in m:
        for x in r[n:]:
            den = den * x.denominator // gcd(den, x.denominator)
    return [tuple(int(x * den) for x in r[n:]) for r in m], den


def matmul(a, b):
    return [[dot(row, col) for col in zip(*b)] for row in a]


INTS = st.integers(-6, 6)
# zeros are common, so singular matrices and free variables come up
SPARSE_INTS = st.one_of(st.just(0), st.integers(-4, 4))
RATIONALS = st.one_of(
    st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


@st.composite
def matrices(draw, entries, square):
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    return [tuple(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
            for _ in range(nrows)]


@given(st.one_of(matrices(INTS, True), matrices(RATIONALS, True)))
def test_inverse_rows_matches_the_reference(rows):
    try:
        expected = ref_inverse_rows(rows)
    except ValueError:
        with pytest.raises(ValueError):
            inverse_rows(rows)
        return
    m, d = inverse_rows(rows)
    assert (m, d) == expected
    assert all(isinstance(x, int) for row in m for x in row) and d > 0
    n = len(rows)
    assert matmul(m, rows) == [[d * (i == j) for j in range(n)] for i in range(n)]


@given(st.one_of(matrices(SPARSE_INTS, True), matrices(RATIONALS, True)))
def test_det_matches_the_reference(rows):
    got = det(rows)
    assert got == ref_det(rows)
    all_int = all(isinstance(x, int) for row in rows for x in row)
    assert isinstance(got, int if all_int else Fraction)


@given(st.one_of(matrices(SPARSE_INTS, False), matrices(RATIONALS, False)),
       st.data())
def test_solve_matches_the_reference(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        # a consistent system, usually with free variables
        x0 = data.draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
        rhs = tuple(dot(row, x0) for row in rows)
    else:
        rhs = tuple(data.draw(
            st.lists(RATIONALS, min_size=len(rows), max_size=len(rows))))
    got = solve(rows, rhs)
    assert got == ref_solve(rows, rhs)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        assert all(dot(row, got) == b for row, b in zip(rows, rhs))


def test_smith_saturation_and_index():
    rows = [(2, 4)]
    assert saturation_basis(rows) == [(1, 2)] or saturation_basis(rows) == [(-1, -2)]
    assert sublattice_index(rows) == 2
    diag, basis = smith_with_basis([(2, 0), (0, 2)])
    assert sorted(diag) == [2, 2]
    assert abs(det(basis)) == 1
    diag, basis = smith_with_basis([(1, 2)])
    assert len(diag) == 1 and abs(det([(1, 2), basis[1]])) == 1


def test_saturation_and_complement_read_rational_rows_exactly():
    # only the ℚ-span matters: (1/2, 1) spans the line through (1, 2)
    assert saturation_basis([(Fraction(1, 2), 1)]) in ([(1, 2)], [(-1, -2)])
    assert saturation_basis([(0.5, 1.0), (Fraction(3, 2), 3)]) in ([(1, 2)], [(-1, -2)])


@pytest.mark.parametrize("call", [sublattice_index, smith_with_basis])
def test_lattice_normal_forms_refuse_non_integral_entries(call):
    with pytest.raises(ValueError):
        call([(Fraction(3, 2), 3)])
    with pytest.raises(ValueError):
        call([(1, 0), (0, 0.5)])
    assert sublattice_index([(Fraction(4, 2), 4.0)]) == 2


def test_kernel_basis():
    k = kernel_basis([(1, 1, 1)], 3)
    assert len(k) == 2
    for v in k:
        assert dot((1, 1, 1), v) == 0
    # a ℚ-basis of the kernel: (1,-1,0) lies in its span
    assert in_span(k, (1, -1, 0))
    assert kernel_basis([(1, 0), (0, 1)], 2) == []
    # not saturated: (0, -1, 1) is in the kernel of (2, 1, 1) but is no
    # integer combination of the vectors read off the pivot 2
    k = kernel_basis([(2, 1, 1)], 3)
    assert k == [(-1, 2, 0), (-1, 0, 2)] and sublattice_index(k) == 2


def test_solve_dot_one():
    for phi in [(3, 5), (7, -2, 4), (1,), (0, 0, -1)]:
        x = solve_dot_one(phi)
        assert dot(phi, x) == 1


def test_canonical_span_rows():
    a = canonical_span_rows([(2, 4), (1, 3)])
    b = canonical_span_rows([(1, 0), (0, 1)])
    assert a == b
    assert canonical_span_rows([(2, 4)]) == canonical_span_rows([(-1, -2)])


# -- rank, span tests and echelon forms against the primitive-row reduction ---
# The forward reduction these functions ran on before they moved onto the
# fraction-free core, kept as an independent reference.


def ref_reduce_row(row, red):
    """Eliminate ``row`` against ``(pivot_col, primitive row)`` pairs; return
    its pivot column, or None when it reduces to zero."""
    for pc, pr in red:
        x = row[pc]
        if x:
            p = pr[pc]
            g = gcd(abs(x), p)
            a, b = p // g, x // g
            for j in range(len(row)):
                row[j] = a * row[j] - b * pr[j]
    piv = next((j for j, x in enumerate(row) if x), None)
    if piv is None:
        return None
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if row[piv] < 0:
        g = -g
    for j in range(len(row)):
        row[j] //= g
    return piv


def ref_int_rows(rows):
    out = []
    for r in rows:
        den = 1
        for x in r:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
        out.append([int(Fraction(x) * den) for x in r])
    return out


def ref_forward(rows):
    red = []
    for r in ref_int_rows(rows):
        piv = ref_reduce_row(r, red)
        if piv is not None:
            red.append((piv, r))
    return red


def ref_int_echelon(rows):
    red = sorted(ref_forward(rows))
    for i in range(len(red) - 2, -1, -1):
        later = red[i + 1:]
        if any(red[i][1][pc] for pc, _ in later):
            ref_reduce_row(red[i][1], later)
    return red


def ref_in_span(rows, v):
    return ref_reduce_row(ref_int_rows([v])[0], ref_forward(rows)) is None


def ref_kernel_basis(rows, ncols):
    red = ref_int_echelon(rows)
    pivots = {pc for pc, _ in red}
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        den = 1
        for pc, pr in red:
            if pr[f]:
                den = den * pr[pc] // gcd(den, pr[pc])
        v[f] = den
        for pc, pr in red:
            if pr[f]:
                v[pc] = -pr[f] * (den // pr[pc])
        vecs.append(primitive(tuple(v)))
    return vecs


@st.composite
def span_inputs(draw):
    """Rows (possibly none) with zero, repeated and dependent rows, plus a
    probe vector that is often in their span."""
    entries = draw(st.sampled_from([SPARSE_INTS, RATIONALS]))
    ncols = draw(st.integers(1, 5))
    vec = st.lists(entries, min_size=ncols, max_size=ncols).map(tuple)
    rows = draw(st.lists(vec, max_size=5))
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            extra.append((0,) * ncols)
        elif kind == "repeat":
            extra.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(RATIONALS)
            extra.append(tuple(x + c * y for x, y in zip(a, b)))
    rows = rows + extra
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
        probe = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols))
    else:
        probe = draw(vec)
    return rows, probe, ncols


@settings(max_examples=80)
@given(span_inputs())
@example(([], (0, 1), 2))
@example(([], (0,), 1))
@example(([(0,), (3,), (Fraction(-3, 2),)], (Fraction(1, 2),), 1))
@example(([(0, 0, 0), (1, 2, 3), (2, 4, 6)], (Fraction(1, 3), Fraction(2, 3), 1), 3))
def test_span_functions_match_the_primitive_row_reduction(inp):
    rows, probe, ncols = inp
    red = ref_int_echelon(rows)
    assert rank(rows) == len(red)
    assert canonical_span_rows(rows) == tuple(tuple(r) for _, r in red)
    assert in_span(rows, probe) == ref_in_span(rows, probe)
    assert kernel_basis(rows, ncols) == ref_kernel_basis(rows, ncols)


@settings(max_examples=80)
@given(span_inputs())
@example(([(2, 4)], (0, 0), 2))
@example(([(1, 1, 1), (1, -1, 3)], (0, 0, 0), 3))
def test_kernel_rows_are_a_primitive_rational_basis_of_the_kernel(inp):
    rows, _, ncols = inp
    k = kernel_basis(rows, ncols)
    assert len(k) == ncols - rank(rows)
    assert all(vgcd(v) == 1 for v in k)
    assert rank(k) == len(k)
    assert all(dot(r, v) == 0 for r in rows for v in k)
