"""Tensor-spherical-harmonic sectors on the round 3-sphere.

A sector is a family (scalar / transverse-vector / transverse-traceless
tensor) together with a level k.  All spatial operators restricted to a
sector act on a small finite basis generated from the harmonic by the
symmetric differential, codifferential and metric attachment; their matrices
have exact rational entries.

Degenerate low levels (where generators become linearly dependent, for
example d d Y = -Y h at k=1) are handled uniformly: candidate generators are
reduced by an exact Gram-Schmidt rank test and the dropped generators keep a
rewrite rule into the retained basis.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import rational as rl

Q = Fraction


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
# + 2|h)(h| on 2-tensors, and the intertwining Dj+1,L d = d DjL.
# ---------------------------------------------------------------------------


def _scalar_table(k):
    lam = Q(k * (k + 2))
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
    # reduction priority: keep the metric-attached generators first at
    # degenerate levels (spec'd basis drops ddY at k<=1, dddY at k<=2)
    priority = {0: ["Y"], 1: ["dY"], 2: ["hY", "ddY"], 3: ["hdY", "dddY"]}
    return gens, gram, act, priority


def _vector_table(k):
    mu = Q(k * (k + 2) + 1)
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
    priority = {0: [], 1: ["V"], 2: ["dV"], 3: ["hV", "ddV"]}
    return gens, gram, act, priority


def _tensor_table(k):
    nu = Q(k * (k + 2) + 4)
    gens = {0: [], 1: [], 2: ["T"], 3: ["dT"]}
    gram = {0: [], 1: [], 2: [[Q(1)]], 3: [[nu - 12]]}
    act = {
        "d": {"T": {"dT": Q(1)}},
        "delta": {"T": {}, "dT": {"T": nu - 12}},
        "trace": {"T": {}, "dT": {}},
        "hmul": {},
        "hsym": {},
    }
    priority = {0: [], 1: [], 2: ["T"], 3: ["dT"]}
    return gens, gram, act, priority


_TABLES = {
    Family.SCALAR: _scalar_table,
    Family.VECTOR: _vector_table,
    Family.TENSOR: _tensor_table,
}

class SectorSpace:
    """Reduced bases and exact operator matrices for one sector."""

    def __init__(self, sector):
        self.sector = sector
        gens, gram, act, priority = _TABLES[sector.family](sector.k)
        self._act = act
        self.basis = {}
        self._rewrite = {}  # rank -> dict gen_name -> coords over basis
        self._gram_basis = {}
        self._ops = {}  # (name, rank) -> (matrix, target_rank)
        for rank in range(4):
            self._reduce_rank(rank, gens[rank], gram[rank], priority[rank])

    def _reduce_rank(self, rank, names, gram, priority):
        if not names:
            self.basis[rank] = ()
            self._rewrite[rank] = {}
            self._gram_basis[rank] = []
            return
        idx = {n: i for i, n in enumerate(names)}
        kept = []

        def g(a, b):
            return gram[idx[a]][idx[b]]

        rewrites = {}
        for name in priority:
            if kept:
                gk = [[g(a, b) for b in kept] for a in kept]
                rhs = [g(a, name) for a in kept]
                coeffs = rl.solve(gk, rhs)
                resid = g(name, name) - sum(c * r for c, r in zip(coeffs, rhs))
            else:
                coeffs = []
                resid = g(name, name)
            if resid == 0:
                rewrites[name] = dict(zip(kept, coeffs))
            else:
                kept.append(name)
        basis = [n for n in names if n in kept]
        self.basis[rank] = tuple(basis)
        rew = {}
        for n in names:
            if n in basis:
                rew[n] = {n: Q(1)}
            else:
                rew[n] = {b: c for b, c in rewrites[n].items() if c != 0}
        self._rewrite[rank] = rew
        bidx = [idx[b] for b in basis]
        self._gram_basis[rank] = [[gram[i][j] for j in bidx] for i in bidx]

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
        rank-2), 'htrace' ((h| = 2*trace), 'hmul' (|h), 0->2),
        'hsym' (symmetrized h tensor attachment, 1->3).
        Returns (matrix, target_rank); the matrix is a tuple of row tuples,
        built once per (name, rank) and shared by every caller.
        """
        if (name, rank) not in self._ops:
            self._ops[name, rank] = self._build_op(name, rank)
        return self._ops[name, rank]

    def _build_op(self, name, rank):
        targets = {"d": rank + 1, "delta": rank - 1, "trace": rank - 2,
                   "htrace": rank - 2, "hmul": rank + 2, "hsym": rank + 2}
        if name not in targets:
            raise ValueError(f"unknown operator {name!r}")
        tr = targets[name]
        if not (0 <= tr <= 3) or rank not in _APPLICABLE[name]:
            raise ValueError(f"operator {name!r} not applicable at rank {rank}")
        key = "trace" if name == "htrace" else name
        cols = []
        for b in self.basis[rank]:
            combo = self._act[key].get(b)
            if combo is None:
                raise ValueError(f"operator {name!r} not applicable at rank {rank}")
            cols.append(self._gen_coords(tr, combo))
        scale = 2 if name == "htrace" else 1
        return tuple(tuple(scale * cols[j][i] for j in range(len(cols)))
                     for i in range(self.dim(tr))), tr


_APPLICABLE = {
    "d": (0, 1, 2),
    "delta": (1, 2, 3),
    "trace": (2, 3),
    "htrace": (2, 3),
    "hmul": (0,),
    "hsym": (1,),
}


@lru_cache(maxsize=None)
def space(sector):
    return SectorSpace(sector)
