"""Small linear algebra over exact rationals.

Matrices are plain lists of lists of ``fractions.Fraction`` at the API.
Inside, elimination works on sparse rows: :func:`nullspace` and
:func:`solve` share one reduced row echelon routine that touches only
nonzero entries, and :func:`matmul` skips zero terms.  Everything here is
exact; convert with :func:`to_numpy` only at the float boundary.
"""

import itertools
from fractions import Fraction

import numpy as np

Q = Fraction


def zeros(m, n):
    return [[Q(0)] * n for _ in range(m)]


def eye(n):
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def shape(a):
    return len(a), len(a[0]) if a else 0


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    c = Q(c)
    return [[c * x for x in row] for row in a]


def matmul(a, b):
    ma, na = shape(a)
    mb, nb = shape(b)
    if ma == 0:
        return []
    if na == 0:
        return [[Q(0)] * nb for _ in range(ma)]
    if na != mb:
        raise ValueError(f"shape mismatch {ma}x{na} @ {mb}x{nb}")
    bt = list(zip(*b)) if mb else []
    out = []
    for ra in a:
        nz = [(k, x) for k, x in enumerate(ra) if x]
        out.append([sum((x * col[k] for k, x in nz if col[k]), Q(0)) for col in bt])
    return out


def matvec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Q(0)) for row in a]


def vstack(blocks):
    out = []
    for b in blocks:
        out.extend([list(r) for r in b])
    return out


def hstack(blocks):
    rows = len(blocks[0])
    out = []
    for i in range(rows):
        row = []
        for b in blocks:
            row.extend(b[i])
        out.append(row)
    return out


def block_diag(blocks):
    m = sum(shape(b)[0] for b in blocks)
    n = sum(shape(b)[1] for b in blocks)
    out = zeros(m, n)
    i0 = j0 = 0
    for b in blocks:
        bm, bn = shape(b)
        for i in range(bm):
            for j in range(bn):
                out[i0 + i][j0 + j] = b[i][j]
        i0 += bm
        j0 += bn
    return out


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
    _, n = shape(a)
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
    _, n = shape(a)
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


def to_numpy(a, dtype=float):
    m, n = shape(a)
    out = np.zeros((m, n), dtype=dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = a[i][j]
    return out
