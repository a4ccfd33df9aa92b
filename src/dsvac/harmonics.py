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

Harmonics are fixed only up to scale, so all arithmetic is on Python
``int``: every polynomial has integer coefficients, every element is a
primitive integer null vector of the constraints, and the symmetrization
sums its (r+1)! orderings without dividing by them.  Sphere integrals of
monomials use the classical Gamma-function formula, as integers over one
common denominator, 4^M (M+1)! at the top half-degree M the oracle
integrates (the common 2*pi^2 factor and that denominator cancel in every
ratio used here).  The eigenvalue and the transversality are each one
``Fraction``, built at the end.  The work is kept sparse: Pi is applied in
factored form, so multiplying by a coordinate only shifts monomial keys;
quadratures pair only monomials of equal per-coordinate parity (every other
pair integrates to zero), with monomial integrals memoised on first use;
symmetric tensors are summed over sorted indices.  Polynomials are sparse
exact vectors of :mod:`dsvac.rational`, summed in place by its
``accumulate``, and the sparse integer constraint rows go straight to its
fraction-free elimination.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import rational as rl
from .sectors import Family, SectorLabel

Q = Fraction

NVAR = 4

K_MAX = 3  # desk scale

# The largest half-degree of a monomial the oracle integrates: the norm of
# the rank-3 symmetrized gradient of a rank-2 element of degree K_MAX, whose
# entries have degree K_MAX - 1 plus two per projected slot.
_MOMENT_TOP = K_MAX - 1 + 2 * 3


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
def _moment(a):
    """Sphere integral of the monomial x^a, in units of 2*pi^2 / (4^M
    (M+1)!) with M = _MOMENT_TOP: the integer 4^(M-s) (M+1)!/(s+1)!
    prod (2 m_i)!/m_i! with a = 2m and s = |m|; memoised on first use."""
    if any(e % 2 for e in a):
        return 0
    m = [e // 2 for e in a]
    s = sum(m)
    num = 4 ** (_MOMENT_TOP - s) * factorial(_MOMENT_TOP + 1) // factorial(s + 1)
    for mi in m:
        num *= factorial(2 * mi) // factorial(mi)
    return num


def _parity(a):
    return tuple(e & 1 for e in a)


def _sphere_inner(p, q):
    """Integral of p * q over the unit 3-sphere, in the units of
    ``_moment``, without forming the product: only monomial pairs of equal
    per-coordinate parity integrate to nonzero."""
    blocks = {}
    for b, d in q.items():
        blocks.setdefault(_parity(b), []).append((b, d))
    total = 0
    for a, c in p.items():
        for b, d in blocks.get(_parity(a), ()):
            total += c * d * _moment(tuple(x + y for x, y in zip(a, b)))
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
    unscaled symmetrization, the sum over the (rank + 1)! orderings of the
    slots, and the unsymmetrized projection d, whose slot 0 carries the
    derivative, d[(i,) + idx] = (Pi...Pi) d_i u[idx].  Each symmetrized
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
            orbit[key] = acc
        sym[idx] = orbit[key]
    return sym, d


def _norm2(t, rank):
    """Integral of the fiber norm r! sum t^2 of a symmetric rank-r tensor,
    in the units of ``_moment``, summed over sorted index tuples weighted by
    their number of orderings."""
    total = 0
    for idx in itertools.combinations_with_replacement(range(NVAR), rank):
        p = t.get(idx)
        if p:
            orderings = len(set(itertools.permutations(idx)))
            total += orderings * _sphere_inner(p, p)
    return factorial(rank) * total


def _constraint_rows(rank, comps, mons):
    """Sparse integer constraint rows on the coefficients of symmetric
    rank-``rank`` polynomial tensors of degree k: harmonic per component,
    divergence-free and tangential per rank-(r-1) index, trace-free at rank
    2.  Columns are component-major in the order of ``comps``, monomials in
    ``mons`` order."""
    rows = {}

    def put(key, col, image):
        for oa, c in image.items():
            rl.accumulate(rows.setdefault((key, oa), {}), [(col, c)])

    for m, a in enumerate(mons):
        unit = {a: 1}
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
    return list(rows.values())


def _realize(family, k):
    """Harmonic, divergence-free, tangential (trace-free at rank 2) symmetric
    polynomial tensors of degree k, each a primitive integer null vector of
    the constraints; eigenvalue measured as the quadrature of delta d -
    d delta plus the curvature shift, transversality as the largest
    relative divergence norm.  The symmetrization is (rank + 1)! times the
    symmetric part, so its norm is divided by ((rank + 1)!)^2."""
    rank = _RANK[family]
    comps = list(itertools.combinations_with_replacement(range(NVAR), rank))
    mons = monomials(k)
    ncol = len(comps) * len(mons)
    elements = []
    for v in rl.nullspace(_constraint_rows(rank, comps, mons), ncol):
        v = rl.primitive({j: c for j, c in enumerate(v) if c})
        u = {}
        for n, comp in enumerate(comps):
            p = {a: v[j] for j, a in enumerate(mons, n * len(mons)) if j in v}
            for idx in set(itertools.permutations(comp)):
                u[idx] = p
        elements.append(u)
    orderings2 = factorial(rank + 1) ** 2
    eigs = set()
    max_div = Q(0)
    for u in elements:
        norm_u = _norm2(u, rank)
        sym, d = _sym_grad(u, rank)
        norm_div = 0
        if rank:
            div = {}
            for rest in _indices(rank - 1):
                acc = {}
                for i in range(NVAR):
                    rl.accumulate(acc, d[(i, i) + rest].items())
                div[rest] = p_scale(acc, -rank)
            norm_div = _norm2(div, rank - 1)
        max_div = max(max_div, Q(norm_div, norm_u))
        eigs.add(Q(_norm2(sym, rank + 1) - orderings2 * norm_div, orderings2 * norm_u)
                 + _SHIFT[rank])
    if len(eigs) != 1:
        raise RuntimeError(f"{family.value} level {k} not an eigenspace: {sorted(eigs)}")
    return HarmonicRealization(family, k, elements, eigs.pop(), max_div)


def harmonic_oracle(k, family):
    """Construct the harmonic level and measure eigenvalue + multiplicity.

    Desk scale only (k <= K_MAX); levels below the family minimum raise
    ``ValueError``.
    """
    SectorLabel(family, k)
    if k > K_MAX:
        raise ValueError(f"harmonic oracle is desk-scale: k <= {K_MAX}")
    return _realize(family, k)
