"""Exact elimination over the rationals.

The library's exact matrices are numpy object arrays of
``fractions.Fraction``: they multiply with ``@``, stack with ``np.block``
and become floats with ``astype(float)``, the same algebra as the float
matrices.  This module holds only what numpy cannot do exactly, the sparse
elimination: :func:`nullspace` and :func:`solve` share one reduced row
echelon routine that touches only nonzero entries.  They accept nested
lists or 2-D arrays and return lists of ``Fraction``.
"""

import itertools
from fractions import Fraction

Q = Fraction


def _rref(rows, ncol):
    """Reduced row echelon form of sparse rows (dicts ``{col: Fraction}`` of
    nonzero entries), reduced in place.

    Walks the columns left to right; each pivot is taken from the un-pivoted
    row with the fewest nonzeros, normalised, and its column eliminated from
    every other row, touching only nonzero entries.  Returns the pivot
    columns and their rows in column order.  The reduced form is unique, so
    the result does not depend on the pivot choice.
    """
    pending = [r for r in rows if r]
    pivoted = []
    for c in range(ncol):
        if not pending:
            break
        holding = [i for i, r in enumerate(pending) if c in r]
        if not holding:
            continue
        prow = pending.pop(min(holding, key=lambda i: len(pending[i])))
        inv = 1 / prow[c]
        for j in prow:
            prow[j] *= inv
        for row in itertools.chain(pending, (r for _, r in pivoted)):
            f = row.get(c)
            if f is None:
                continue
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                else:
                    x -= f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivoted.append((c, prow))
    return pivoted


def _sparse_rows(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def nullspace(a):
    """Basis (list of column vectors) of the exact null space of ``a``, read
    off the reduced row echelon form: one vector per free column."""
    n = len(a[0]) if len(a) else 0
    pivoted = _rref(_sparse_rows(a), n)
    pivot_cols = {c for c, _ in pivoted}
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        v = [Q(0)] * n
        v[fc] = Q(1)
        for pc, row in pivoted:
            v[pc] = -row.get(fc, Q(0))
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a @ x = b for exact x; raises if singular/inconsistent.

    ``b`` may be a vector or a matrix of right-hand sides; it is reduced as
    extra columns of ``a``.
    """
    vec = not isinstance(b[0], list)
    bm = [[x] for x in b] if vec else b
    n = len(a[0]) if len(a) else 0
    rows = _sparse_rows(a)
    for row, rhs in zip(rows, bm):
        row.update((n + j, x) for j, x in enumerate(rhs) if x)
    pivoted = _rref(rows, n + len(bm[0]))
    if sum(c < n for c, _ in pivoted) < n:
        raise ValueError("singular system")
    if len(pivoted) > n:
        raise ValueError("inconsistent system")
    x = [[row.get(n + j, Q(0)) for j in range(len(bm[0]))] for _, row in pivoted]
    return [r[0] for r in x] if vec else x

