"""Exact integer/rational linear algebra used by every geometric kernel.

No floats, ever.  Matrices are sequences of row tuples whose entries are
``int`` or ``fractions.Fraction``; any other number is read exactly through
``Fraction``.  All elimination runs on integers: rational rows are first scaled
to integer rows with the same row space (:func:`_int_rows`), never truncated.

There is one elimination core, :func:`_gauss_jordan`: fraction-free
Gauss–Jordan elimination (Bareiss's integer-preserving scheme).  :func:`rank`,
:func:`det`, :func:`solve` (and so :func:`coordinates_in_basis`),
:func:`in_span`, :func:`inverse_rows`, :func:`kernel_basis` and
:func:`canonical_span_rows` all read their answers off its reduced rows, and
build a ``Fraction`` at most once per output entry.  For lattices,
:func:`smith_with_basis` diagonalizes an integer matrix by unimodular
operations while tracking the inverse column transform; that single routine
yields saturations and sublattice indices.
:func:`int_vector` reads outside coordinates as integers, exactly.

The per-entry vector kernels run every entry through C-level builtins, with
no Python loop: :func:`dot` is ``sum(map(mul, u, v))``; :func:`vadd`,
:func:`vsub` and :func:`vneg` map the :mod:`operator` functions; :func:`vgcd`
and :func:`primitive` take the variadic ``math.gcd`` (and :func:`primitive`
returns a vector of gcd 1 as it is); :func:`is_zero` is ``not any(v)``.  They
are the innermost loop of every cone cut (about 15,000 :func:`dot` calls per
verified eliminant of the benchmark), and the rest of the package calls them
rather than spelling them out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, index, mul, neg, sub
from typing import Sequence

Vec = tuple
Mat = Sequence[Sequence]


class ZeroVector(ValueError):
    pass


# ---------------------------------------------------------------------------
# vectors

def vgcd(v) -> int:
    return gcd(*v)


def primitive(v) -> Vec:
    """v / gcd(|coords|), preserving direction. Errors on the zero vector."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ZeroVector("ZeroVector: the zero vector has no primitive form")
    return tuple(x // g for x in v)


def int_vector(v) -> Vec:
    """The entries of v as ints, read exactly; ValueError on a non-integral one.

    Integral floats and Fractions are accepted; nothing is truncated.  A
    string is not a number, even one that spells an integer.
    """
    out = []
    for x in v:
        if not isinstance(x, int):
            if isinstance(x, str):
                raise ValueError(f"non-numeric coordinate {x!r}")
            q = Fraction(x)
            if q.denominator != 1:
                raise ValueError(f"non-integral coordinate {x!r}")
            x = q.numerator
        out.append(int(x))
    return tuple(out)


def rational_primitive(v) -> Vec:
    """Primitive integer vector on the ray spanned by a rational vector (read exactly)."""
    return primitive(tuple(_int_rows([v])[0][0]))


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v) -> Vec:
    return tuple(map(add, u, v))


def vsub(u, v) -> Vec:
    return tuple(map(sub, u, v))


def vscale(c, v) -> Vec:
    return tuple(c * a for a in v)


def vneg(v) -> Vec:
    return tuple(map(neg, v))


def is_zero(v) -> bool:
    return not any(v)


def sign_normalized(v) -> Vec:
    """Flip so the first nonzero coordinate is positive (canonical normals)."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else vneg(v)
    return tuple(v)


# ---------------------------------------------------------------------------
# rank / determinant / solving (exact)

def _int_rows(rows: Mat) -> tuple[list, list]:
    """Scale each row by its denominator lcm: integer rows, same row space.

    Returns the integer rows and the scale of each row.  An entry that is not
    an int is read exactly through ``Fraction``, never truncated.
    """
    out, scales = [], []
    for r in rows:
        den = 1
        for x in r:
            if not isinstance(x, int):
                den = lcm(den, Fraction(x).denominator)
        if den == 1:
            out.append([int(x) for x in r])
        else:
            out.append([x * den if isinstance(x, int) else int(Fraction(x) * den)
                        for x in r])
        scales.append(den)
    return out, scales


def _width(rows: Mat, n: int | None = None) -> int:
    """The common length of the rows, ``n`` when given; ValueError otherwise."""
    if n is None:
        n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError(f"rows of different lengths, expected {n}")
    return n


def _transpose(rows: Mat, n: int) -> list:
    """The n columns of rows of length n, as rows (ValueError on ragged rows)."""
    _width(rows, n)
    return list(zip(*rows)) if rows else [()] * n


def _reduce(rows: Mat, ncols: int | None = None) -> tuple[list, list, int]:
    """``(m, pivots, d)``: the rows scaled to integers and reduced by the core.

    Every row must have length ``ncols`` (the first row's length when not
    given).  ``m[:len(pivots)]`` is the reduced echelon basis of the row
    space, each row with the entry ``d`` in its pivot column.
    """
    ncols = _width(rows, ncols)
    m, _ = _int_rows(rows)
    pivots, d, _ = _gauss_jordan(m, ncols)
    return m, pivots, d


def rank(rows: Mat) -> int:
    """Rank over ℚ: the number of pivots of the fraction-free core."""
    return len(_reduce(rows)[1])


def _gauss_jordan(m: list, ncols: int) -> tuple[list, int, int]:
    """Fraction-free Gauss–Jordan elimination of integer rows, in place.

    Bareiss's integer-preserving elimination (Bareiss 1968, *Sylvester's
    identity and multistep integer-preserving Gaussian elimination*), carried
    through every row.  At each pivot ``p``, every other row, earlier pivot
    rows included, becomes ``(p·row − x·pivot_row) // prev``, where ``x`` is
    its entry in the pivot column and ``prev`` the previous pivot (1 at the
    start); a row with ``x == 0`` becomes ``p·row // prev``.  Each division is
    exact by Sylvester's identity, so the entries stay integers no larger than
    the minors of the input.

    Pivots are searched in the first ``ncols`` columns only, taking the first
    nonzero entry at or below the current row; a column without one is
    skipped.  Later columns (a right-hand side, an identity block) are carried
    along.  Returns ``(pivots, d, sign)``: the pivot column of each leading
    row, the last pivot ``d`` (1 if there is none) and the sign of the row
    permutation.  On return every pivot entry equals ``d``, the pivot columns
    are zero elsewhere, and the rows past ``len(pivots)`` are zero in the
    first ``ncols`` columns.
    """
    nrows = len(m)
    pivots = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for k in range(r, nrows):
            if m[k][c]:
                break
        else:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        pr = m[r]
        p = pr[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            x = row[c]
            if x:
                m[i] = [(p * a - x * b) // prev for a, b in zip(row, pr)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def det(rows: Mat):
    """Determinant of a square matrix, exactly.

    The rows are scaled to integers and reduced by the fraction-free core;
    its last pivot, signed by the row swaps, is the determinant of the scaled
    matrix, which is then divided by the product of the row scales.  Returns
    an int for int input and a Fraction otherwise.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("det of a non-square matrix")
    m, scales = _int_rows(rows)
    pivots, d, sign = _gauss_jordan(m, n)
    num = sign * d if len(pivots) == n else 0
    if all(isinstance(x, int) for r in rows for x in r):
        return num
    return Fraction(num, prod(scales))


def solve(rows: Mat, rhs) -> tuple | None:
    """One exact solution of rows·x = rhs over ℚ, or None if inconsistent.

    Each equation, right-hand side included, is scaled to integers and the
    system is reduced by the fraction-free core, pivoting on the first nonzero
    entry of each column at or below the current row.  Free variables are set
    to 0, so each pivot variable is its row's right-hand side over the last
    pivot: the entries are Fractions built once, at the end.  Raises
    ValueError on ragged rows or a right-hand side of the wrong length.
    """
    red = _consistent(rows, rhs)
    if red is None:
        return None
    m, pivots, d = red
    x = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[-1], d)
    return tuple(x)


def _consistent(rows: Mat, rhs) -> tuple[list, list, int] | None:
    """The system rows·x = rhs reduced by the core as ``(m, pivots, d)``, the
    right-hand side in the last column, or None if it is inconsistent."""
    rhs = tuple(rhs)
    if len(rhs) != len(rows):
        raise ValueError(
            f"right-hand side has {len(rhs)} entries for {len(rows)} equations")
    ncols = _width(rows)
    m, _ = _int_rows([[*r, b] for r, b in zip(rows, rhs)])
    pivots, d, _ = _gauss_jordan(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    return m, pivots, d


def inverse_rows(rows: Mat):
    """Exact inverse of a square matrix as ``(M, d)`` with inverse = M/d.

    M has integer entries and d is a positive integer, the lcm of the
    denominators of the inverse.  The rows are scaled to integers and reduced
    beside an identity block by the fraction-free core, which leaves the
    adjugate of the scaled matrix (up to sign) over its last pivot; column i
    is multiplied back by the scale of row i, and the common factor with the
    pivot is divided out.  Raises ValueError on a non-square or singular
    matrix.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    m, scales = _int_rows(rows)
    for i, row in enumerate(m):
        row += [0] * n
        row[n + i] = 1
    pivots, d, _ = _gauss_jordan(m, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    adj = [[x * s for x, s in zip(row[n:], scales)] for row in m]
    g = gcd(d, *(x for row in adj for x in row))
    if d < 0:
        g = -g
    return [tuple(x // g for x in row) for row in adj], d // g


def in_span(rows: Mat, v) -> bool:
    """Is v in the ℚ-span of the rows?  That is, is rowsᵀ·x = v consistent?

    Raises ValueError on ragged rows or a v of another length.
    """
    v = tuple(v)
    return _consistent(_transpose(rows, len(v)), v) is not None


# ---------------------------------------------------------------------------
# integer normal forms

def smith_with_basis(rows: Mat):
    """Diagonalize an integer matrix A by unimodular row/column operations.

    Returns ``(diag, basis)`` where ``diag`` is the list of nonzero diagonal
    entries (positive, one per matrix rank) and ``basis`` is a unimodular
    ℤ-basis of the ambient column space such that

        row-lattice(A) = span_ℤ { diag[i] · basis[i] }.

    Consequently ``basis[:len(diag)]`` is a basis of the *saturation* of the
    row lattice, ``basis[len(diag):]`` is a complementary basis, and
    ``prod(diag)`` is the index of the row lattice inside its saturation.
    (Divisibility ordering of ``diag`` is not enforced; none of the uses here
    needs it.)  A non-integral entry raises ValueError.
    """
    try:  # integer rows, the common case, are read at no extra cost
        a = [list(map(index, r)) for r in rows]
    except TypeError:
        a = [list(int_vector(r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    w = [[int(i == j) for j in range(ncols)] for i in range(ncols)]  # V^{-1}

    def col_op(j, i, c):  # col_j += c * col_i  ⇒  row_i of w -= c * row_j
        for k in range(nrows):
            a[k][j] += c * a[k][i]
        w[i] = [x - c * y for x, y in zip(w[i], w[j])]

    def col_swap(i, j):
        for k in range(nrows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        w[i], w[j] = w[j], w[i]

    def col_neg(i):
        for k in range(nrows):
            a[k][i] = -a[k][i]
        w[i] = [-x for x in w[i]]

    t = 0
    diag = []
    while True:
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            col_swap(pj, t)
        # chase remainders until row t and column t are clean beyond (t, t)
        dirty = True
        while dirty:
            dirty = False
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, -q)
                    if a[t][j] != 0:  # remainder smaller than pivot: swap in
                        col_swap(j, t)
                        dirty = True
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[i], a[t] = a[t], a[i]
                        dirty = True
        if a[t][t] < 0:
            col_neg(t)
        diag.append(a[t][t])
        t += 1
        if t == nrows or t == ncols:
            break
    return diag, [tuple(r) for r in w]


def saturation_basis(rows: Mat) -> list:
    """ℤ-basis of (ℚ-span of rows) ∩ ℤ^n."""
    try:
        diag, basis = smith_with_basis(rows)
    except ValueError:  # rational rows: scale them, only their ℚ-span matters
        diag, basis = smith_with_basis(_int_rows(rows)[0])
    return basis[: len(diag)]


def sublattice_index(rows: Mat) -> int:
    """Index of the row lattice inside its saturation (1 for empty input)."""
    return prod(smith_with_basis(rows)[0])


def kernel_basis(rows: Mat, ncols: int) -> list:
    """Saturated ℤ-basis of {x ∈ ℤ^ncols : rows · x = 0}.

    Each free column f of the reduced echelon form gives the kernel vector
    with x_f = d, the pivot variables read off their rows and the other free
    variables 0, made primitive with x_f > 0.  Raises ValueError unless every
    row has length ncols.
    """
    m, pivots, d = _reduce(rows, ncols)
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = d
        for c, row in zip(pivots, m):
            v[c] = -row[f]
        vecs.append(primitive(v if d > 0 else vneg(v)))
    return saturation_basis(vecs) if vecs else []


def canonical_span_rows(rows: Mat) -> tuple:
    """Canonical key for the ℚ-span of the rows: primitive RREF basis.

    Each reduced echelon row of the core, divided by its gcd with the sign
    that makes its pivot positive; the primitive reduced echelon form is
    unique.  Raises ValueError on ragged rows.
    """
    m, pivots, d = _reduce(rows)
    return tuple(primitive(row if d > 0 else vneg(row)) for row in m[:len(pivots)])


def coordinates_in_basis(basis: Mat, v):
    """Coefficients of v in the given basis (rows), or None if outside."""
    v = tuple(v)
    return solve(_transpose(basis, len(v)), v)


def solve_dot_one(phi) -> Vec:
    """Integer x with phi·x = 1 for a primitive integer covector phi."""
    n = len(phi)
    g, coeffs = 0, [0] * n
    for i, a in enumerate(phi):
        if a == 0:
            continue
        if g == 0:
            g, coeffs = abs(a), [0] * n
            coeffs[i] = 1 if a > 0 else -1
            continue
        # extended gcd of g and a
        old_r, rr = g, abs(a)
        old_s, s = 1, 0
        while rr:
            q = old_r // rr
            old_r, rr = rr, old_r - q * rr
            old_s, s = s, old_s - q * s
        # old_r = gcd, old_s*g + t*|a| = old_r
        t = (old_r - old_s * g) // abs(a)
        coeffs = [old_s * c for c in coeffs]
        coeffs[i] = t if a > 0 else -t
        g = old_r
        if g == 1:
            break
    if g != 1:
        raise ValueError("covector is not primitive")
    return tuple(coeffs)
