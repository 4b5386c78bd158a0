"""Exact sparse linear algebra over the rationals for the resolution oracle.

A matrix is a list of sparse rows, each a ``{column: value}`` dict that
stores only nonzero entries; rows carry no width, so callers pass column
counts where they matter.  Elimination runs in integers: a row becomes
``Fraction`` only when it is divided by a pivot other than +-1.
"""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import TypeAlias

# rref imports Fraction where it divides, so importing this module leaves it unloaded
Value: TypeAlias = "int | Fraction"
Row = dict[int, Value]
Matrix = list[Row]


def zeros(nrows: int) -> Matrix:
    return [{} for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [{i: 1} for i in range(n)]


def _add_scaled(acc: Row, f: Value, row: Row) -> None:
    """acc += f * row, in place, storing nonzero entries only."""
    for k, y in row.items():
        x = acc.get(k, 0) + f * y
        if x:
            acc[k] = x
        else:
            del acc[k]


def row_times(mat: Matrix, vec: Row) -> Row:
    """vec @ mat for a sparse row vector."""
    out: Row = {}
    for k, x in vec.items():
        _add_scaled(out, x, mat[k])
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [row_times(b, row) for row in a]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns.

    The reduced form is unique, so the choice of pivot row cannot change the
    answer; the first row with a nonzero entry in the column is taken.
    All-zero rows are kept, last, so the output has the input's row count.
    """
    m = [{k: x for k, x in row.items() if x} for row in mat]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in sorted({k for row in m for k in row}):
        i = next((i for i in range(r, nrows) if c in m[i]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        row = m[r]
        pv = row[c]
        if pv == -1:
            row = m[r] = {k: -x for k, x in row.items()}
        elif pv != 1:
            from fractions import Fraction
            row = m[r] = {k: Fraction(x, pv) for k, x in row.items()}
        for j, other in enumerate(m):
            if j != r and c in other:
                _add_scaled(other, -other[c], row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def left_nullspace(mat: Matrix, nrows: int, ncols: int) -> tuple[Matrix, list[int]]:
    """Basis of {x row vector : x @ mat = 0} plus its free coordinate list.

    mat has nrows rows and ncols columns.  Each basis vector has a 1 in its
    own free coordinate and zeros in the others, so coordinates of a kernel
    vector in this basis are read off at the free coordinates.
    """
    if nrows == 0:
        return [], []
    if ncols == 0:
        return identity(nrows), list(range(nrows))
    # x @ mat = 0  <=>  mat^T x^T = 0: reduce mat^T, all-zero rows included.
    tr = zeros(ncols)
    for i, row in enumerate(mat):
        for j, x in row.items():
            tr[j][i] = x
    red, pivots = rref(tr)
    pivot_set = set(pivots)
    free = [j for j in range(nrows) if j not in pivot_set]
    basis: dict[int, Row] = {f: {f: 1} for f in free}
    for r, pc in enumerate(pivots):
        for f, x in red[r].items():
            if f != pc:
                basis[f][pc] = -x
    return [basis[f] for f in free], free


def coords_in_nullbasis(free_pos: dict[int, int], vec: Row) -> Row:
    """Coordinates of a kernel vector in a left_nullspace basis.

    free_pos maps each free coordinate to the index of its basis vector.
    """
    return {free_pos[c]: x for c, x in vec.items() if x and c in free_pos}
