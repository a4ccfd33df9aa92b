"""Sparse exact vectors and their elimination over the rationals.

The library's exact matrices are numpy object arrays of
``fractions.Fraction``: they multiply with ``@``, stack with ``np.block``
and become floats with ``astype(float)``.  This module holds what numpy
cannot do exactly: the sparse exact vector, a dict of nonzero rationals,
with its one in-place update :func:`accumulate` (the warped coefficients,
the harmonic polynomials and the rows here all update through it) and its
scaling to a primitive integer vector, :func:`primitive`; and its null
space, :func:`nullspace`, read off a reduced row echelon form.  The
elimination is fraction-free: every row is scaled to a primitive integer row
on entry and kept so, a row is updated as ``p * row - f * pivot_row`` with
``p`` and ``f`` divided by their gcd, and the ``Fraction`` entries of the
reduced form are built once, at the end.  The reduced form is unique, so the
result is the one a Gauss-Jordan elimination over ``Fraction`` gives.
:func:`nullspace` accepts nested lists, 2-D arrays or sparse rows, and
returns lists of ``Fraction``.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def accumulate(acc, terms):
    """acc += the ``(key, value)`` pairs ``terms`` in place; returns ``acc``.
    A zero is never stored: a key whose sum cancels is deleted, so a later
    term of it is appended anew at the end."""
    for k, v in terms:
        x = acc.get(k)
        if x is not None:
            v = x + v
        if v:
            acc[k] = v
        elif x is not None:
            del acc[k]
    return acc


def primitive(vec):
    """Scale the sparse exact vector ``vec`` in place to a primitive integer
    vector, of ``int`` entries whose gcd is 1, keeping its signs; returns
    ``vec``."""
    den = lcm(*(x.denominator for x in vec.values()))
    for k, x in vec.items():
        vec[k] = x.numerator * (den // x.denominator)
    g = gcd(*vec.values())
    if g > 1:
        for k, x in vec.items():
            vec[k] = x // g
    return vec


def _rref(rows, ncol):
    """Reduced row echelon form of sparse rows (dicts ``{col: value}`` of
    nonzero rationals), reduced in place without fractions.

    Walks the columns left to right; each pivot is taken from the un-pivoted
    row with the fewest nonzeros, and its column eliminated from every other
    row by an integer combination, touching only nonzero entries.  Every row
    stays a primitive integer row.  Returns the pivot columns and their rows
    in column order, each row divided by its pivot.  The reduced form is
    unique, so the result does not depend on the pivot choice.
    """
    pending = [primitive(r) for r in rows if r]
    pivoted = []
    for c in range(ncol):
        if not pending:
            break
        holding = [i for i, r in enumerate(pending) if c in r]
        if not holding:
            continue
        prow = pending.pop(min(holding, key=lambda i: len(pending[i])))
        p = prow[c]
        for row in itertools.chain(pending, (r for _, r in pivoted)):
            f = row.get(c)
            if f is None:
                continue
            g = gcd(p, f)
            s, t = p // g, -(f // g)
            if s != 1:
                for j in row:
                    row[j] *= s
            accumulate(row, [(j, t * y) for j, y in prow.items()])
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        pivoted.append((c, prow))
    return [(c, {j: Q(y, row[c]) for j, y in row.items()}) for c, row in pivoted]


def nullspace(a, ncol=None):
    """Basis (list of column vectors) of the exact null space of ``a``, read
    off the reduced row echelon form: one vector per free column.  ``ncol``
    is the number of columns; it is required when the rows of ``a`` are
    sparse, dicts ``{col: value}`` of nonzero entries."""
    n = ncol if ncol is not None else len(a[0]) if len(a) else 0
    rows = [dict(row) if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}
            for row in a]
    pivoted = _rref(rows, n)
    pivot_cols = {c for c, _ in pivoted}
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        v = [Q(0)] * n
        v[fc] = Q(1)
        for pc, row in pivoted:
            x = row.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(v)
    return basis

