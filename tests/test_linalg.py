from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropeci.linalg import (
    ZeroVector,
    canonical_span_rows,
    complement_basis,
    det,
    dot,
    in_span,
    inverse_rows,
    kernel_basis,
    primitive,
    rank,
    rational_primitive,
    saturation_basis,
    smith_with_basis,
    solve,
    solve_dot_one,
    sublattice_index,
)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_rational_primitive_reads_every_entry_exactly():
    assert rational_primitive((Fraction(1, 2), 1, 0)) == (1, 2, 0)
    assert rational_primitive((0.5, 1, 0)) == (1, 2, 0)
    assert rational_primitive((0.25, -0.5)) == (1, -2)
    with pytest.raises(ZeroVector):
        rational_primitive((0.0, 0))


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
    comp = complement_basis([(1, 2)])
    assert len(comp) == 1
    assert abs(det([saturation_basis([(1, 2)])[0], comp[0]])) == 1


def test_kernel_basis():
    k = kernel_basis([(1, 1, 1)], 3)
    assert len(k) == 2
    for v in k:
        assert dot((1, 1, 1), v) == 0
    # saturated: (1,-1,0) and friends expressible over ℤ
    assert in_span(k, (1, -1, 0))
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


def test_solve_dot_one():
    for phi in [(3, 5), (7, -2, 4), (1,), (0, 0, -1)]:
        x = solve_dot_one(phi)
        assert dot(phi, x) == 1


def test_canonical_span_rows():
    a = canonical_span_rows([(2, 4), (1, 3)])
    b = canonical_span_rows([(1, 0), (0, 1)])
    assert a == b
    assert canonical_span_rows([(2, 4)]) == canonical_span_rows([(-1, -2)])
