"""The sparse integer elimination in agq.linalg, checked against plain sums."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from agq.linalg import left_nullspace, rref
from agq.oracle import projective_cover_kernel, rep_of


def sparse(dense_rows):
    return [{j: x for j, x in enumerate(row) if x} for row in dense_rows]


def dense_rank(rows, ncols):
    """Rank by textbook Gaussian elimination over Fraction lists."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_non_unit_pivot_falls_back_to_fraction():
    basis, free = left_nullspace([{0: 2}, {0: 3}], 2, 1)
    assert free == [1]
    assert basis == [{0: Fraction(-3, 2), 1: 1}]
    assert isinstance(basis[0][0], Fraction)


def test_unit_pivots_keep_int_entries():
    red, pivots = rref(sparse([[1, 1, 0], [0, -1, 1], [1, 0, 1]]))
    assert pivots == [0, 1]
    assert red == [{0: 1, 2: 1}, {1: 1, 2: -1}, {}]
    assert all(type(x) is int for row in red for x in row.values())


def test_cover_kernels_stay_integral(fig1, cyc2e):
    # every pivot met on these modules is +-1
    for pair in (fig1, cyc2e):
        for v in pair.quiver.vertices:
            kernel = projective_cover_kernel(pair, rep_of(pair, "injective", v)).kernel
            assert all(type(x) is int for mat in kernel.maps.values()
                       for row in mat for x in row.values())


def test_pivot_modes_agree():
    # the first pivot row is row 0 here and row 1 (entry 3) once it comes first
    m = sparse([[1, 0, 2], [3, 1, 0], [4, 1, 2]])
    assert len(rref(m)[1]) == dense_rank([[1, 0, 2], [3, 1, 0], [4, 1, 2]], 3)
    assert rref(m) == rref([m[1], m[0], m[2]])
    assert m == sparse([[1, 0, 2], [3, 1, 0], [4, 1, 2]])  # input left untouched


matrices = st.integers(0, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=5).map(
    lambda rows: (rows, ncols)))


@settings(max_examples=300, deadline=None)
@given(matrices.flatmap(lambda shape: st.permutations(range(len(shape[0]))).map(
    lambda order: (shape[0], order))))
def test_rref_ignores_row_order(case):
    # the reduced form is unique, so no choice of pivot row can change it
    rows, order = case
    m, permuted = sparse(rows), sparse([rows[i] for i in order])
    assert rref(m) == rref(permuted)
    assert m == sparse(rows) and permuted == sparse([rows[i] for i in order])  # inputs untouched


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_left_nullspace_property(shape):
    rows, ncols = shape
    nrows = len(rows)
    basis, free = left_nullspace(sparse(rows), nrows, ncols)
    assert len(basis) == len(free) == nrows - dense_rank(rows, ncols)
    for f, x in zip(free, basis):
        for j in range(ncols):
            assert sum(x.get(i, 0) * rows[i][j] for i in range(nrows)) == 0
        assert [x.get(g, 0) for g in free] == [int(g == f) for g in free]
        assert all(x.values())  # zeros are never stored
