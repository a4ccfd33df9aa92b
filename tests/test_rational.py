"""Exact linear algebra of ``dsvac.rational`` against dense reference loops."""

import random
from fractions import Fraction

import pytest

from dsvac import rational as rl

Q = Fraction


# -- dense references (the Gauss-Jordan elimination the sparse RREF replaced) --

def _echelon_reference(a, b=None):
    m = len(a)
    n = len(a[0]) if a else 0
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


def _nullspace_reference(a):
    n = len(a[0]) if a else 0
    work = [list(r) for r in a]
    piv = _echelon_reference(work)
    basis = []
    for fc in [c for c in range(n) if c not in piv]:
        v = [Q(0)] * n
        v[fc] = Q(1)
        for r, pc in enumerate(piv):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def _solve_reference(a, b):
    vec = not isinstance(b[0], list)
    bm = [[x] for x in b] if vec else [list(r) for r in b]
    m, n = len(a), len(a[0])
    work = [list(r) for r in a]
    piv = _echelon_reference(work, bm)
    if len(piv) < n:
        raise ValueError("singular system")
    for i in range(len(piv), m):
        if any(x != 0 for x in bm[i]):
            raise ValueError("inconsistent system")
    x = [[Q(0)] * len(bm[0]) for _ in range(n)]
    for r, pc in enumerate(piv):
        x[pc] = bm[r]
    return [row[0] for row in x] if vec else x


def _matmul_reference(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0))
             for j in range(len(b[0]))] for i in range(len(a))]


# -- seeded sparse rational matrices --------------------------------------------

def _entry(rng, density):
    if rng.random() >= density:
        return Q(0)
    return Q(rng.randint(-9, 9) or 1, rng.randint(1, 6))


def _random(rng, m, n, density=0.25):
    return [[_entry(rng, density) for _ in range(n)] for _ in range(m)]


def _matrices():
    rng = random.Random(20240515)
    out = []
    for m, n in ((3, 7), (5, 12), (8, 20), (2, 30), (1, 9),
                 (12, 5), (20, 8), (30, 2), (9, 1), (6, 6), (10, 10), (15, 15)):
        for density in (0.1, 0.3, 0.7):
            out.append(_random(rng, m, n, density))
    for m, r, n in ((6, 2, 9), (9, 3, 7), (8, 4, 8), (12, 5, 10), (5, 1, 5)):
        # rank-deficient: a product through an r-dimensional middle
        out.append(_matmul_reference(_random(rng, m, r, 0.6), _random(rng, r, n, 0.6)))
    for m, n in ((4, 6), (7, 7), (10, 5)):
        a = _random(rng, m, n, 0.4)
        out.append(a + [list(a[0]), list(a[-1])])   # duplicate rows
    out += [[[Q(0)] * 5 for _ in range(3)], [[Q(0)]], [[Q(3, 7)]], [[Q(1), Q(0)]],
            [[Q(0)], [Q(2)]], []]
    return out


MATRICES = _matrices()


def _typed(obj):
    """Nested lists of exact values with each entry's type, so that equality
    also checks that every entry is a Fraction."""
    if isinstance(obj, list):
        return [_typed(x) for x in obj]
    return (type(obj), obj)


@pytest.mark.parametrize("a", MATRICES, ids=[f"m{i}" for i in range(len(MATRICES))])
def test_nullspace_equals_dense_reference(a):
    basis = rl.nullspace(a)
    assert _typed(basis) == _typed(_nullspace_reference(a))
    for v in basis:
        assert all(x == 0 for x in rl.matvec(a, v))


def test_nullspace_of_the_empty_matrix():
    assert rl.nullspace([]) == []


def test_solve_vector_and_matrix_right_hand_sides():
    rng = random.Random(7)
    solved = 0
    for n in (1, 2, 4, 7, 10):
        for density in (0.3, 0.8):
            a = _random(rng, n, n, density)
            if len(_nullspace_reference(a)):
                continue
            x = [_entry(rng, 0.7) for _ in range(n)]
            b = rl.matvec(a, x)
            assert _typed(rl.solve(a, b)) == _typed(_solve_reference(a, b))
            assert rl.solve(a, b) == x
            xm = _random(rng, n, 3, 0.5)
            bm = rl.matmul(a, xm)
            assert _typed(rl.solve(a, bm)) == _typed(_solve_reference(a, bm))
            assert rl.solve(a, bm) == xm
            solved += 1
    assert solved >= 5


def test_solve_tall_consistent_system():
    rng = random.Random(11)
    a = _random(rng, 9, 4, 0.8)
    a[0:4] = [[Q(int(i == j)) for j in range(4)] for i in range(4)]
    x = [Q(1, 2), Q(-3), Q(0), Q(5, 7)]
    b = rl.matvec(a, x)
    assert rl.solve(a, b) == _solve_reference(a, b) == x


@pytest.mark.parametrize("a,b", [
    ([[Q(1), Q(2)], [Q(2), Q(4)]], [Q(1), Q(2)]),           # rank 1, consistent
    ([[Q(1), Q(2)], [Q(2), Q(4)]], [Q(1), Q(3)]),           # rank 1, inconsistent
    ([[Q(1), Q(0), Q(1)]], [Q(1)]),                          # wide
    ([[Q(0)]], [[Q(0), Q(1)]]),                              # zero, matrix rhs
])
def test_solve_singular_raises(a, b):
    with pytest.raises(ValueError, match="singular"):
        rl.solve(a, b)
    with pytest.raises(ValueError, match="singular"):
        _solve_reference(a, b)


@pytest.mark.parametrize("b", [[Q(1), Q(2), Q(4)], [[Q(1)], [Q(2)], [Q(4)]]])
def test_solve_inconsistent_raises(b):
    a = [[Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)]]
    with pytest.raises(ValueError, match="inconsistent"):
        rl.solve(a, b)
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_reference(a, b)


def test_matmul_equals_dense_reference():
    rng = random.Random(3)
    for m, k, n in ((1, 1, 1), (3, 5, 2), (6, 6, 6), (10, 4, 12), (7, 15, 3)):
        for density in (0.0, 0.2, 0.9):
            a = _random(rng, m, k, density)
            b = _random(rng, k, n, density)
            assert _typed(rl.matmul(a, b)) == _typed(_matmul_reference(a, b))
    assert rl.matmul([], [[Q(1)]]) == []
    assert _typed(rl.matmul([[], []], [])) == _typed([[], []])
