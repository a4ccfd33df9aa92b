"""Tensor-spherical-harmonic sectors on the round 3-sphere.

A sector is a family (scalar / transverse-vector / transverse-traceless
tensor) together with a level k.  All spatial operators restricted to a
sector act on a small finite basis generated from the harmonic by the
symmetric differential, codifferential and metric attachment; their matrices
have exact rational entries.

The generator tables are written in the level variable x = k(k+2): the
eigenvalues are x, x + 1 and x + 4.  So a family's tables can also be built
once with x formal (``space(family)``): their entries are then polynomials
in x (``XPoly``), and evaluating them at x = k(k+2) (``at_level``) is a ring
homomorphism, so anything computed from the formal tables by sums and
products evaluates to what the same computation gives at level k.

Degenerate low levels (where generators become linearly dependent, for
example d d Y = -Y h at k=1) are handled uniformly: the exact null space of
the candidate generators' Gram matrix, taken in priority order, names the
dropped generators and their rewrite rules into the retained basis.  A
sector whose space drops no generator is *full*: its tables are its
family's evaluated at its level.  The others are the finitely many levels
where a Gram determinant, a polynomial in x, vanishes (``reduced_levels``).
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import rational as rl

Q = Fraction


class XPoly:
    """A polynomial of degree >= 1 in the level variable x with rational
    coefficients: integer coefficients ``num``, lowest power first, over one
    positive denominator ``den``, in lowest terms.  It mixes with ints and
    Fractions in sums and products, and a result of degree 0 is returned as
    a Fraction: so a zero is always Fraction(0), and an XPoly is never zero
    (``bool`` is True) and never equal to a number.  Calling it at an exact
    level x returns the Fraction it takes there."""

    __slots__ = ("num", "den")

    @staticmethod
    def make(num, den=1):
        """The polynomial sum num[p] x^p / den, a Fraction if constant."""
        num = list(num)
        while len(num) > 1 and not num[-1]:
            num.pop()
        if len(num) == 1:
            return Q(num[0], den)
        g = gcd(den, *num)
        out = object.__new__(XPoly)
        out.num = tuple(c // g for c in num)
        out.den = den // g
        return out

    @staticmethod
    def _parts(v):
        if isinstance(v, XPoly):
            return v.num, v.den
        if isinstance(v, (int, Fraction)):
            return (v.numerator,), v.denominator
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        (a, da), (b, db) = (self.num, self.den), parts
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return XPoly.make([x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return XPoly.make([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        (a, da), (b, db) = (self.num, self.den), parts
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return XPoly.make(out, da * db)

    __rmul__ = __mul__

    def __pow__(self, p):
        out = Q(1)
        for _ in range(p):
            out = out * self
        return out

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Q(other))

    def __eq__(self, other):
        return isinstance(other, XPoly) and (self.num, self.den) == (other.num, other.den)

    def __call__(self, x):
        tot = 0
        for c in reversed(self.num):
            tot = tot * x + c
        return Q(tot, self.den)

    def __repr__(self):
        return f"XPoly({self.num}, {self.den})"


X = XPoly.make((0, 1))  # the level variable x = k(k+2)


def at_level(value, x):
    """An exact value of the family tables (an XPoly, a Fraction or an int,
    or an object array of them) evaluated at the level x = k(k+2)."""
    if hasattr(value, "flat"):  # an object array: a new one, of the values
        out = value.copy()
        out.flat = [at_level(v, x) for v in value.flat]
        return out
    return value(x) if isinstance(value, XPoly) else value


class Family(str, Enum):
    SCALAR = "Scalar"
    VECTOR = "VectorTransverse"
    TENSOR = "TensorTT"


_MIN_K = {Family.SCALAR: 0, Family.VECTOR: 1, Family.TENSOR: 2}
_EIG_SHIFT = {Family.SCALAR: 0, Family.VECTOR: 1, Family.TENSOR: 4}


@dataclass(frozen=True, order=True)
class SectorLabel:
    family: Family
    k: int

    def __post_init__(self):
        if self.k < _MIN_K[self.family]:
            raise ValueError(f"{self.family.value} requires k >= {_MIN_K[self.family]}")

    @property
    def x(self):
        """The level variable x = k(k+2) at this level."""
        return self.k * (self.k + 2)

    @property
    def eigenvalue(self):
        """Lichnerowicz eigenvalue k(k+2) + shift, exact integer."""
        return Q(self.k * (self.k + 2) + _EIG_SHIFT[self.family])

    @property
    def multiplicity(self):
        """Degeneracy of the harmonic level (closed formula, see
        ``multiplicity_verified`` for its status)."""
        k = self.k
        if self.family is Family.SCALAR:
            return (k + 1) ** 2
        if self.family is Family.VECTOR:
            return 2 * k * (k + 2)
        return 2 * (k - 1) * (k + 3)

    @property
    def multiplicity_verified(self):
        """True where the closed formula is cross-checked by the polynomial
        harmonic oracle (desk scale k <= 3); 'unverified formula' beyond."""
        return self.k <= 3

    def __str__(self):
        return f"{self.family.value}({self.k})"


# the special low sectors: Maxwell's level zero, and gravity's Killing
# sectors at levels three (the trace line) and four
SCALAR0 = SectorLabel(Family.SCALAR, 0)
SCALAR1 = SectorLabel(Family.SCALAR, 1)
VECTOR1 = SectorLabel(Family.VECTOR, 1)


def enumerate_sectors(k_max, families=(Family.SCALAR, Family.VECTOR, Family.TENSOR)):
    """All sector labels with k <= k_max, family-major, k ascending."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = []
    for fam in families:
        for k in range(_MIN_K[fam], k_max + 1):
            out.append(SectorLabel(fam, k))
    return out


# ---------------------------------------------------------------------------
# Generator tables.
#
# Per family the candidate generators at each rank, their exact Gram matrix,
# and the action of the spatial operators expressed over generators.  All
# identities below are the round-sphere (Einstein, Lambda = 2) reductions of
# the symmetric calculus: delta(u0*h) = -2 d(u0), (h| d = -2 delta,
# delta d - d delta = D1L - 4 on 1-forms, delta d - d delta = D2L - 12
# + 2|h)(h| on 2-tensors, and the intertwining Dj+1,L d = d DjL.  Each table
# takes the level k, or None for the formal level variable X.
# ---------------------------------------------------------------------------


def _level(k):
    return X if k is None else Q(k * (k + 2))


def _scalar_table(k):
    lam = _level(k)
    gens = {0: ["Y"], 1: ["dY"], 2: ["ddY", "hY"], 3: ["dddY", "hdY"]}
    gram = {
        0: [[Q(1)]],
        1: [[lam]],
        2: [[2 * lam * (lam - 2), -2 * lam], [-2 * lam, Q(6)]],
        3: [
            [(3 * lam - 16) * 2 * lam * (lam - 2) + 8 * lam ** 2, 6 * lam * (Q(4, 3) - lam)],
            [6 * lam * (Q(4, 3) - lam), 10 * lam],
        ],
    }
    act = {
        "d": {"Y": {"dY": Q(1)}, "dY": {"ddY": Q(1)}, "ddY": {"dddY": Q(1)}, "hY": {"hdY": Q(1)}},
        "delta": {
            "dY": {"Y": lam},
            "ddY": {"dY": 2 * (lam - 2)},
            "hY": {"dY": Q(-2)},
            "dddY": {"ddY": 3 * lam - 16, "hY": -4 * lam},
            "hdY": {"ddY": Q(-2), "hY": lam},
        },
        "trace": {
            "ddY": {"Y": -lam},
            "hY": {"Y": Q(3)},
            "dddY": {"dY": Q(4, 3) - lam},
            "hdY": {"dY": Q(5, 3)},
        },
        "hmul": {"Y": {"hY": Q(1)}},
        "hsym": {"dY": {"hdY": Q(1)}},
    }
    return gens, gram, act


def _vector_table(k):
    mu = _level(k) + 1
    gens = {0: [], 1: ["V"], 2: ["dV"], 3: ["ddV", "hV"]}
    gram = {
        0: [],
        1: [[Q(1)]],
        2: [[mu - 4]],
        3: [
            [(2 * mu - 16) * (mu - 4), -2 * (mu - 4)],
            [-2 * (mu - 4), Q(10)],
        ],
    }
    act = {
        "d": {"V": {"dV": Q(1)}, "dV": {"ddV": Q(1)}},
        "delta": {
            "V": {},
            "dV": {"V": mu - 4},
            "ddV": {"dV": 2 * mu - 16},
            "hV": {"dV": Q(-2)},
        },
        "trace": {"dV": {}, "ddV": {"V": -(mu - 4) / 3}, "hV": {"V": Q(5, 3)}},
        "hmul": {},
        "hsym": {"V": {"hV": Q(1)}},
    }
    return gens, gram, act


def _tensor_table(k):
    nu = _level(k) + 4
    gens = {0: [], 1: [], 2: ["T"], 3: ["dT"]}
    gram = {0: [], 1: [], 2: [[Q(1)]], 3: [[nu - 12]]}
    act = {
        "d": {"T": {"dT": Q(1)}},
        "delta": {"T": {}, "dT": {"T": nu - 12}},
        "trace": {"T": {}, "dT": {}},
        "hmul": {},
        "hsym": {},
    }
    return gens, gram, act


_TABLES = {
    Family.SCALAR: _scalar_table,
    Family.VECTOR: _vector_table,
    Family.TENSOR: _tensor_table,
}

class SectorSpace:
    """Reduced bases and exact operator matrices for one sector, or for a
    family at the formal level (``sector`` a ``Family``): then every
    generator is kept and the entries are polynomials in x."""

    def __init__(self, sector):
        self.sector = sector
        self._formal = isinstance(sector, Family)
        family, k = (sector, None) if self._formal else (sector.family, sector.k)
        gens, gram, act = _TABLES[family](k)
        self._act = act
        self.basis = {}
        self._rewrite = {}  # rank -> dict gen_name -> coords over basis
        self._gram_basis = {}
        self._ops = {}  # (name, rank) -> (matrix, target_rank)
        for rank in range(4):
            self._reduce_rank(rank, gens[rank], gram[rank])

    def _reduce_rank(self, rank, names, gram):
        # priority: the metric-attached generators (h...) first.  A null
        # vector of the (positive semidefinite) Gram is a vanishing generator
        # combination; in priority order, the one of a free column f is 1 at
        # f and nonzero otherwise only at earlier kept generators, so it
        # rewrites f over them
        order = sorted(range(len(names)), key=lambda i: not names[i].startswith("h"))
        priority = [names[i] for i in order]
        null = (rl.nullspace([[gram[i][j] for j in order] for i in order])
                if names and not self._formal else [])
        dropped = {}
        for v in null:
            f = max(i for i, x in enumerate(v) if x)
            dropped[priority[f]] = {priority[p]: -x for p, x in enumerate(v[:f]) if x}
        basis = tuple(n for n in names if n not in dropped)
        self.basis[rank] = basis
        self._rewrite[rank] = {n: dropped[n] if n in dropped else {n: Q(1)} for n in names}
        bidx = [names.index(b) for b in basis]
        self._gram_basis[rank] = [[gram[i][j] for j in bidx] for i in bidx]

    @property
    def full(self):
        """True when no generator is dropped at any rank."""
        return all(len(self.basis[r]) == len(self._rewrite[r]) for r in range(4))

    def dim(self, rank):
        return len(self.basis[rank])

    def gram(self, rank):
        return [list(r) for r in self._gram_basis[rank]]

    def _gen_coords(self, rank, combo):
        """Generator combo (dict) -> coordinates over the reduced basis."""
        out = [Q(0)] * self.dim(rank)
        pos = {b: i for i, b in enumerate(self.basis[rank])}
        for gen, c in combo.items():
            for b, r in self._rewrite[rank][gen].items():
                out[pos[b]] += c * r
        return out

    def op(self, name, rank):
        """Matrix of a spatial operator on the rank-``rank`` basis.

        Supported: 'd' (rank+1), 'delta' (rank-1), 'trace' (h-trace,
        rank-2; (h| is twice it), 'hmul' (|h), 0->2), 'hsym' (symmetrized
        h tensor attachment, 1->3).
        Returns (matrix, target_rank); the matrix is a tuple of row tuples,
        built once per (name, rank) and shared by every caller.
        """
        if (name, rank) not in self._ops:
            self._ops[name, rank] = self._build_op(name, rank)
        return self._ops[name, rank]

    def _build_op(self, name, rank):
        targets = {"d": rank + 1, "delta": rank - 1, "trace": rank - 2,
                   "hmul": rank + 2, "hsym": rank + 2}
        if name not in targets:
            raise ValueError(f"unknown operator {name!r}")
        tr = targets[name]
        if not 0 <= tr <= 3:
            raise ValueError(f"operator {name!r} not applicable at rank {rank}")
        cols = []
        for b in self.basis[rank]:
            combo = self._act[name].get(b)
            if combo is None:
                raise ValueError(f"operator {name!r} not applicable at rank {rank}")
            cols.append(self._gen_coords(tr, combo))
        return tuple(tuple(cols[j][i] for j in range(len(cols)))
                     for i in range(self.dim(tr))), tr


@lru_cache(maxsize=None)
def space(sector):
    return SectorSpace(sector)


def generic_family(sector):
    """The family whose formal tables evaluate to this sector's, if its space
    is full; None for a sector with a reduced space (and for a family)."""
    if isinstance(sector, SectorLabel) and space(sector).full:
        return sector.family
    return None


def _det(mat):
    """Determinant of a small square matrix of exact values, by expansion
    along the first row."""
    if not mat:
        return Q(1)
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


@lru_cache(maxsize=None)
def reduced_levels(family):
    """The levels k >= the family's minimum at which its space drops a
    generator, ascending: those where the determinant of some rank's Gram of
    the formal tables vanishes at x = k(k+2).  A nonzero integer root of a
    polynomial with integer coefficients divides its lowest nonzero
    coefficient, which bounds the levels to try."""
    sp = space(family)
    out = set()
    for rank in range(4):
        det = _det(sp.gram(rank))
        if not isinstance(det, XPoly):
            if det == 0:
                raise RuntimeError(f"{family.value}: rank-{rank} generators are "
                                   "dependent at every level")
            continue
        low = next(c for c in det.num if c)
        k = _MIN_K[family]
        while k * (k + 2) <= abs(low):
            if det(k * (k + 2)) == 0:
                out.add(k)
            k += 1
    return tuple(sorted(out))
