"""Small dense linear algebra over exact rationals.

Matrices are plain lists of lists of ``fractions.Fraction``.  Everything here
is exact; convert with :func:`to_numpy` only at the float boundary.
"""

from fractions import Fraction

import numpy as np

Q = Fraction


def qmat(rows):
    return [[Q(x) for x in row] for row in rows]


def zeros(m, n):
    return [[Q(0)] * n for _ in range(m)]


def eye(n):
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def shape(a):
    return len(a), len(a[0]) if a else 0


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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
    return [[sum((ra[k] * col[k] for k in range(na)), Q(0)) for col in bt] for ra in a]


def matvec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Q(0)) for row in a]


def transpose(a):
    m, n = shape(a)
    if m == 0:
        return []
    return [list(col) for col in zip(*a)]


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


def _echelon(a, b=None):
    """In-place row echelon reduction; returns pivot column list."""
    m, n = shape(a)
    piv_cols = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        if b is not None:
            b[r], b[pivot] = b[pivot], b[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        if b is not None:
            b[r] = [x * inv for x in b[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                if b is not None:
                    b[i] = [x - f * y for x, y in zip(b[i], b[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return piv_cols


def nullspace(a):
    """Basis (list of column vectors) of the exact null space of ``a``."""
    m, n = shape(a)
    work = [list(r) for r in a]
    piv = _echelon(work)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [Q(0)] * n
        v[fc] = Q(1)
        for r, pc in enumerate(piv):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a @ x = b for exact x; raises if singular/inconsistent.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    vec = not isinstance(b[0], list)
    bm = [[x] for x in b] if vec else [list(r) for r in b]
    m, n = shape(a)
    work = [list(r) for r in a]
    piv = _echelon(work, bm)
    if len(piv) < n:
        raise ValueError("singular system")
    for i in range(len(piv), m):
        if any(x != 0 for x in bm[i]):
            raise ValueError("inconsistent system")
    nrhs = len(bm[0])
    x = [[Q(0)] * nrhs for _ in range(n)]
    for r, pc in enumerate(piv):
        x[pc] = bm[r]
    return [row[0] for row in x] if vec else x


def to_numpy(a, dtype=float):
    m, n = shape(a)
    out = np.zeros((m, n), dtype=dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = a[i][j]
    return out
