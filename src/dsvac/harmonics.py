"""Polynomial harmonic oracle on the 3-sphere (desk scale, k <= 3).

Scalar, transverse vector and TT tensor harmonics of level k are one
construction at tensor rank r = 0, 1, 2: restrictions of symmetric
polynomial r-tensors on R^4, homogeneous of degree k, that are harmonic,
divergence-free, tangential (x . u = 0) and, at r = 2, trace-free.  The
constraints are solved exactly on a monomial basis.  A polynomial tensor is a
dict from index tuples to polynomials, and tangential derivatives use the
ambient projector Pi = 1 - x x^T on every slot.  Eigenvalues are measured,
never assumed, as the exact quadrature of delta d - d delta on the element
plus the rank's curvature shift.

All arithmetic is exact rational; sphere integrals of monomials use the
classical Gamma-function formula (the common 2*pi^2 factor cancels in every
ratio used here).  The work is kept sparse: Pi is applied in factored form,
so multiplying by a coordinate only shifts monomial keys; quadratures pair
only monomials of equal per-coordinate parity (every other pair integrates
to zero), with monomial integrals memoised on first use; symmetric tensors
are summed over sorted indices.  Polynomials are sparse exact vectors of
:mod:`dsvac.rational`, summed in place by its ``accumulate``, and the
constraint solve uses its sparse elimination.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import rational as rl
from .sectors import Family, SectorLabel

Q = Fraction

NVAR = 4


def monomials(deg):
    if deg < 0:
        return []
    out = []
    for c in itertools.combinations_with_replacement(range(NVAR), deg):
        alpha = [0] * NVAR
        for i in c:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


def p_scale(p, c):
    c = Q(c)
    if c == 0:
        return {}
    return {a: c * v for a, v in p.items()}


def p_diff(p, i):
    out = {}
    for a, c in p.items():
        if a[i] > 0:
            b = list(a)
            b[i] -= 1
            out[tuple(b)] = c * a[i]
    return out


def p_laplace(p):
    out = {}
    for i in range(NVAR):
        rl.accumulate(out, p_diff(p_diff(p, i), i).items())
    return out


def _shift_add(acc, p, i):
    """acc += x_i * p in place; multiplying by x_i only shifts keys."""
    return rl.accumulate(acc, [(a[:i] + (a[i] + 1,) + a[i + 1:], c) for a, c in p.items()])


@lru_cache(maxsize=None)
def _mono_integral(a):
    """Sphere integral of the monomial x^a, in units of 2*pi^2; memoised
    on first use."""
    if any(e % 2 for e in a):
        return Q(0)
    m = [e // 2 for e in a]
    num = Q(1)
    for mi in m:
        num *= Q(factorial(2 * mi), 4 ** mi * factorial(mi))
    return num / factorial(sum(m) + 1)


def _parity(a):
    return tuple(e & 1 for e in a)


def _sphere_inner(p, q):
    """Integral of p * q over the unit 3-sphere without forming the product:
    only monomial pairs of equal per-coordinate parity integrate to nonzero."""
    blocks = {}
    for b, d in q.items():
        blocks.setdefault(_parity(b), []).append((b, d))
    total = Q(0)
    for a, c in p.items():
        for b, d in blocks.get(_parity(a), ()):
            total += c * d * _mono_integral(tuple(x + y for x, y in zip(a, b)))
    return total


class HarmonicRealization:
    """Explicit polynomial realization of one harmonic level; each element is
    a polynomial tensor, a dict from index tuples to polynomials."""

    def __init__(self, family, k, elements, eigen_measured, transversality):
        self.family = family
        self.k = k
        self.elements = elements
        self.eigenvalue = eigen_measured
        self.multiplicity = len(elements)
        self.transversality = transversality


_RANK = {Family.SCALAR: 0, Family.VECTOR: 1, Family.TENSOR: 2}

_SHIFT = {
    0: 0,   # scalar Laplacian = delta d
    1: 4,   # D1L = delta d - d delta + 4 on the round 3-sphere
    2: 12,  # D2L = delta d - d delta + 12 - 2|h)(h| ; trace-free here
}


def _indices(rank):
    return list(itertools.product(range(NVAR), repeat=rank))


def _project(t, rank):
    """Apply Pi = 1 - x x^T to every slot of a rank-``rank`` polynomial
    tensor, factored as (Pi t)[..i..] = t[..i..] - x_i sum_a x_a t[..a..]
    with the contraction built once per slot and remaining index."""
    for s in range(rank):
        out = {}
        for rest in _indices(rank - 1):
            contraction = {}
            for a in range(NVAR):
                src = t.get(rest[:s] + (a,) + rest[s:])
                if src:
                    _shift_add(contraction, src, a)
            minus = p_scale(contraction, -1)
            for i in range(NVAR):
                idx = rest[:s] + (i,) + rest[s:]
                out[idx] = _shift_add(dict(t.get(idx, {})), minus, i)
        t = out
    return t


def _sym_grad(u, rank):
    """Tangential gradient of a rank-``rank`` polynomial tensor: returns the
    symmetrization and the unsymmetrized projection d, whose slot 0 carries
    the derivative, d[(i,) + idx] = (Pi...Pi) d_i u[idx].  Each symmetrized
    entry is built once per sorted index and shared by its orderings."""
    d = _project({(i,) + idx: p_diff(p, i) for idx, p in u.items()
                  for i in range(NVAR)}, rank + 1)
    perms = list(itertools.permutations(range(rank + 1)))
    orbit = {}
    sym = {}
    for idx in d:
        key = tuple(sorted(idx))
        if key not in orbit:
            acc = {}
            for perm in perms:
                rl.accumulate(acc, d[tuple(key[p] for p in perm)].items())
            orbit[key] = p_scale(acc, Q(1, len(perms)))
        sym[idx] = orbit[key]
    return sym, d


def _norm2(t, rank):
    """Integral of the fiber norm r! sum t^2 of a symmetric rank-r tensor,
    summed over sorted index tuples weighted by their number of orderings."""
    total = Q(0)
    for idx in itertools.combinations_with_replacement(range(NVAR), rank):
        p = t.get(idx)
        if p:
            orderings = len(set(itertools.permutations(idx)))
            total += orderings * _sphere_inner(p, p)
    return factorial(rank) * total


def _constraint_rows(rank, comps, mons):
    """Exact constraint matrix on the coefficients of symmetric rank-``rank``
    polynomial tensors of degree k: harmonic per component, divergence-free
    and tangential per rank-(r-1) index, trace-free at rank 2.  Columns are
    component-major in the order of ``comps``, monomials in ``mons`` order."""
    rows = {}

    def put(key, col, image):
        for oa, c in image.items():
            rl.accumulate(rows.setdefault((key, oa), {}), [(col, c)])

    for m, a in enumerate(mons):
        unit = {a: Q(1)}
        lap = p_laplace(unit)
        grad = [p_diff(unit, i) for i in range(NVAR)]
        xmul = [_shift_add({}, unit, i) for i in range(NVAR)]
        for n, comp in enumerate(comps):
            col = n * len(mons) + m
            put(("harmonic", comp), col, lap)
            for i in sorted(set(comp)):
                rest = list(comp)
                rest.remove(i)
                put(("div", tuple(rest)), col, grad[i])
                put(("tangential", tuple(rest)), col, xmul[i])
            if rank == 2 and comp[0] == comp[1]:
                put(("trace",), col, unit)
    ncol = len(comps) * len(mons)
    zero = Q(0)
    dense = [[row.get(c, zero) for c in range(ncol)] for row in rows.values()]
    return dense or [[zero] * ncol]


def _realize(family, k):
    """Harmonic, divergence-free, tangential (trace-free at rank 2) symmetric
    polynomial tensors of degree k; eigenvalue measured as the quadrature of
    delta d - d delta plus the curvature shift, transversality as the largest
    relative divergence norm."""
    rank = _RANK[family]
    comps = list(itertools.combinations_with_replacement(range(NVAR), rank))
    mons = monomials(k)
    elements = []
    for v in rl.nullspace(_constraint_rows(rank, comps, mons)):
        u = {}
        for n, comp in enumerate(comps):
            p = {a: c for a, c in zip(mons, v[n * len(mons):]) if c != 0}
            for idx in set(itertools.permutations(comp)):
                u[idx] = p
        elements.append(u)
    eigs = set()
    max_div = Q(0)
    for u in elements:
        norm_u = _norm2(u, rank)
        sym, d = _sym_grad(u, rank)
        norm_div = Q(0)
        if rank:
            div = {}
            for rest in _indices(rank - 1):
                acc = {}
                for i in range(NVAR):
                    rl.accumulate(acc, d[(i, i) + rest].items())
                div[rest] = p_scale(acc, -rank)
            norm_div = _norm2(div, rank - 1)
        max_div = max(max_div, norm_div / norm_u)
        eigs.add((_norm2(sym, rank + 1) - norm_div) / norm_u + _SHIFT[rank])
    if len(eigs) != 1:
        raise RuntimeError(f"{family.value} level {k} not an eigenspace: {sorted(eigs)}")
    return HarmonicRealization(family, k, elements, eigs.pop(), max_div)


def harmonic_oracle(k, family):
    """Construct the harmonic level and measure eigenvalue + multiplicity.

    Desk scale only (k <= 3); levels below the family minimum raise
    ``ValueError``.
    """
    SectorLabel(family, k)
    if k > 3:
        raise ValueError("harmonic oracle is desk-scale: k <= 3")
    return _realize(family, k)
