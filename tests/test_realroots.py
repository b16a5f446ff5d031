"""The exact real spectra behind the real-mode tails: Berkowitz's
characteristic polynomial against exact determinants, and root intervals
from Newton's cells whose end signs, nesting and relative widths are
checked exactly."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from varsign import lti, realroots
from varsign.linalg import Matrix, det

from test_lti import _real_spectrum_matrices


def _scaled(rng, n, scale):
    """An exact real-spectrum matrix times ``scale``, not diagonal."""
    while True:
        A = rng.choice(_real_spectrum_matrices(rng, n))
        if any(A.data[i][j] for i in range(n) for j in range(n) if i != j):
            return Matrix.exact([[x * scale for x in row] for row in A.data])


def _check_intervals(p, K, roots):
    """Descending, disjoint, of the signs p has beside its j-th root, and
    never holding 0 inside."""
    for j, (lo, hi) in enumerate(roots, 1):
        assert lo <= hi and not (lo < 0 < hi)
        if lo == hi:
            assert realroots._at(p, lo, K) == 0
        else:
            left, right = realroots._at(p, lo, K), realroots._at(p, hi, K)
            assert (left > 0) == (j % 2 == 0) and (right > 0) != (j % 2 == 0), (j, lo, hi)
    for (lo, _), (_, hi) in zip(roots, roots[1:]):
        assert hi <= lo


@pytest.mark.parametrize("seed", range(6))
def test_charpoly_is_the_determinant_of_z_minus_m(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    p = realroots._charpoly(M)
    assert len(p) == n + 1 and p[0] == 1
    for z in range(-3, 4):
        zm = Matrix.exact([[(z if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)])
        assert sum(c * z ** (n - i) for i, c in enumerate(p)) == det(zm)


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(2) ** 40, Fraction(1, 3 ** 30),
                                   Fraction(10) ** 200, Fraction(10) ** 400])
def test_real_spectra_are_isolated_exactly(scale):
    """Every level's intervals bracket the roots with the signs p has beside
    them, nest, and shrink to the relative width 2^-(16 + L), however large
    or small the entries; numpy's eigenvalues of M, where finite, lie in
    them."""
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        A = _scaled(rng, n, scale)
        spec = lti.Pair(A, (0,) * n).real_spectrum
        assert spec is not None
        p = spec.p
        previous = None
        for L in range(4):
            K, roots = spec.level(L)
            _check_intervals(p, K, roots)
            for lo, hi in roots:
                assert (hi - lo) << (realroots.BITS + L) <= max(-lo, hi)
            if previous:
                K0, roots0 = previous
                for (lo, hi), (lo0, hi0) in zip(roots, roots0):
                    assert lo0 << (K - K0) <= lo and hi <= hi0 << (K - K0)
            previous = K, roots
        K, roots = spec.level(0)
        if scale <= 2 ** 40:
            dA = math.lcm(*A.dens)
            M = np.array([[float(x * dA) for x in row] for row in A.data])
            for mu, (lo, hi) in zip(sorted(np.linalg.eigvals(M).real, reverse=True), roots):
                assert lo / 2 ** K - 1e-6 * abs(mu) <= mu <= hi / 2 ** K + 1e-6 * abs(mu)


@pytest.mark.parametrize("rows", [
    [[1, -2], [2, 1]],                       # 1 +- 2i
    [[2, 1, 0], [0, 2, 0], [0, 0, 1]],       # a repeated root
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],       # the cube roots of 1
    [[3, 0], [0, 3]],                        # diagonal, repeated
])
def test_no_real_simple_spectrum(rows):
    assert realroots.real_spectrum(rows) is None


@pytest.mark.parametrize("p, xs", [
    ([1, -6, 11, -6], [3.0, 2.5, 1.0]),    # roots 3, 2, 1: no root near 2.5
    ([1, -6, 11, -6], [3.0, 2.0, 2.0]),    # the root 2 twice
    ([1, -6, 11, -6], [1.0, 2.0, 3.0]),    # ascending
    ([1, 0, 1], [0.5, -0.5]),              # z^2 + 1 has no real root
    ([1, -2, 1], [1.0 + 1e-9, 1.0 - 1e-9]),  # (z - 1)^2: one root, twice
])
def test_wrong_approximations_are_not_certified(p, xs):
    """Exact signs refuse cells that do not each hold one root of p."""
    assert realroots._certified_cells(p, 0, xs) is None


def test_right_approximations_are_certified():
    """Cells of relative width at most 2^-16 around the roots +-sqrt(2), and
    the integer roots 3, 2, 1, which the cells' ends hit exactly."""
    K, cells = realroots._certified_cells([1, 0, -2], 0, [2 ** 0.5, -(2 ** 0.5)])
    _check_intervals([1, 0, -2], K, cells)
    assert [hi - lo for lo, hi in cells] == [1, 1] and K == 16
    K, cells = realroots._certified_cells([1, -6, 11, -6], 2, [0.75000001, 0.4999999, 0.25])
    assert cells == [(3 << K, 3 << K), (2 << K, 2 << K), (1 << K, 1 << K)]


def test_realroots_imports_the_standard_library_only():
    """``realroots`` works on plain integer lists, which ``lti.Pair`` builds:
    each module it imports is of the standard library, and no import is
    relative, so it reads nothing of ``varsign``."""
    names = []
    for node in ast.walk(ast.parse(Path(realroots.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.module
            names.append(node.module)
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names), names
