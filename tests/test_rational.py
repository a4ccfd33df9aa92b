"""Exact linear algebra against dense reference loops: the sparse exact
vector of ``dsvac.rational`` (its in-place update, its scaling to primitive
integers and its fraction-free elimination), and numpy's object-array
product that the library's exact matrices rely on."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dsvac import harmonics
from dsvac import rational as rl
from dsvac.radial import build_system
from dsvac.sectors import Family, enumerate_sectors
from dsvac.warped import EUCLIDEAN, LORENTZIAN, WarpedSector, cf_diff, cf_mul

Q = Fraction


# -- dense references (the Gauss-Jordan elimination the sparse RREF replaced) --

def _echelon_reference(a):
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
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
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
        assert all(x == 0 for x in np.array(a) @ v)


def test_nullspace_of_the_empty_matrix():
    assert rl.nullspace([]) == []
    assert _typed(rl.nullspace([], 2)) == _typed([[Q(1), Q(0)], [Q(0), Q(1)]])


def _fraction_entry(rng, density):
    # non-integer entries with coprime denominators up to 97, so that the
    # fraction-free elimination clears many distinct denominators per row
    if rng.random() >= density:
        return Q(0)
    return Q(rng.choice([-1, 1]) * rng.randint(1, 60), rng.choice([2, 3, 7, 11, 48, 97]))


def test_fraction_rows_equal_dense_reference():
    rng = random.Random(27)
    for m, n in ((4, 9), (8, 8), (12, 6), (10, 16), (20, 30)):
        for density in (0.2, 0.5, 0.9):
            a = [[_fraction_entry(rng, density) for _ in range(n)] for _ in range(m)]
            ref = _typed(_nullspace_reference(a))
            assert _typed(rl.nullspace(a)) == ref
            sparse = [{j: x for j, x in enumerate(row) if x} for row in a]
            assert _typed(rl.nullspace(sparse, n)) == ref
            assert sparse == [{j: x for j, x in enumerate(row) if x} for row in a]


def test_primitive_scales_to_coprime_ints():
    rng = random.Random(2027)
    for _ in range(200):
        vec = {k: _fraction_entry(rng, 1.0) * rng.choice([1, 5, 12])
               for k in range(rng.randint(1, 8))}
        out = rl.primitive(dict(vec))
        assert list(out) == list(vec)
        assert all(type(x) is int for x in out.values())
        assert math.gcd(*out.values()) == 1
        first = next(iter(vec))
        ratio = vec[first] / out[first]
        assert ratio > 0 and all(vec[k] == ratio * x for k, x in out.items())


def test_matmul_equals_dense_reference():
    # numpy's product of object arrays of Fraction is exact, entry types kept
    rng = random.Random(3)
    for m, k, n in ((1, 1, 1), (3, 5, 2), (6, 6, 6), (10, 4, 12), (7, 15, 3)):
        for density in (0.0, 0.2, 0.9):
            a = _random(rng, m, k, density)
            b = _random(rng, k, n, density)
            product = np.array(a, dtype=object) @ np.array(b, dtype=object)
            assert _typed(product.tolist()) == _typed(_matmul_reference(a, b))
    empty = np.empty((0, 1), dtype=object)
    assert (empty @ np.array([[Q(1)]])).tolist() == []
    # an empty inner dimension gives exact zeros
    inner = np.empty((2, 0), dtype=object) @ np.empty((0, 3), dtype=object)
    assert inner.tolist() == [[Q(0)] * 3] * 2


# -- the sparse exact vector ----------------------------------------------------

def _accumulate_reference(items, terms, n):
    """Dense sums and the key order of a dict that appends a new key, keeps
    the place of a key it updates and forgets a key whose sum is zero."""
    dense = [0] * n
    order = []
    for k, v in items + terms:
        dense[k] += v
        if dense[k] and k not in order:
            order.append(k)
        elif not dense[k] and k in order:
            order.remove(k)
    return [(k, dense[k]) for k in order]


def test_accumulate_equals_dense_reference():
    # few distinct values of both types, so that sums often cancel
    values = [Q(1), Q(-1), Q(1, 2), Q(-3, 2), 1, -1, 2, 0]
    rng = random.Random(26)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        keys = rng.sample(range(n), rng.randint(0, n))
        items = [(k, rng.choice(values[:-1])) for k in keys]
        terms = [(rng.randrange(n), rng.choice(values)) for _ in range(rng.randint(0, 12))]
        acc = dict(items)
        out = rl.accumulate(acc, terms)
        assert out is acc
        assert list(out.items()) == _accumulate_reference(items, terms, n)
        assert all(out.values())
        cancelled += bool({k for k, v in items + terms if v} - out.keys())
    assert cancelled > 50


def test_accumulate_deletes_a_cancelled_key_and_appends_it_anew():
    acc = {"a": Q(1), "b": 2}
    assert rl.accumulate(acc, [("a", Q(-1))]) == {"b": 2}
    rl.accumulate(acc, [("c", Q(0)), ("d", 0), ("a", Q(1, 3)), ("b", Q(1))])
    assert list(acc.items()) == [("b", 3), ("a", Q(1, 3))]
    assert rl.accumulate(acc, []) is acc


def _assert_no_zero(sparse):
    assert all(x != 0 for x in sparse.values()), sparse


def test_no_exact_sparse_vector_stores_a_zero():
    # (adot + 2a)(adot - 2a) = adot^2 - 4a^2 = -4a on cosh^2: the a adot and
    # a^2 terms cancel and are not stored
    assert cf_mul({(0, 1): Q(1), (1, 0): Q(2)}, {(0, 1): Q(1), (1, 0): Q(-2)}, 1) == {
        (1, 0): Q(-4)}
    for sec in enumerate_sectors(6):
        for signature in (EUCLIDEAN, LORENTZIAN):
            systems = [("D0", False), ("D1", False), ("D2", False)]
            if sec.family is not Family.TENSOR:
                systems += [("D0", True), ("D1", True)]
            for op, maxwell in systems:
                system = build_system(op, sec, signature, maxwell=maxwell)
                sig = WarpedSector(sec, signature).sig
                for coeff in (c for m in (system.m1, system.m0) for row in m for c in row):
                    _assert_no_zero(coeff)
                    _assert_no_zero(cf_diff(coeff, sig))
    for fam, ks in ((Family.SCALAR, range(4)), (Family.VECTOR, range(1, 4)),
                    (Family.TENSOR, range(2, 4))):
        rank = harmonics._RANK[fam]
        for k in ks:
            for u in harmonics.harmonic_oracle(k, fam).elements:
                for t in (u, *harmonics._sym_grad(u, rank)):
                    for p in t.values():
                        _assert_no_zero(p)
