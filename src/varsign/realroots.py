"""Exact real spectra of integer matrices, for the exact real-mode tails of
``lti``: division-free characteristic polynomials (Berkowitz), the
isolation of their roots when all are real and simple, from Newton's
approximations that exact signs check, and interval Horner enclosures at
dyadic points.  Every decision reads the sign of an integer; floats only
propose, so a spectrum they miss is reported as none, which no proof needs.
Matrices and polynomials are plain integer lists: an exact pair becomes
integers in ``lti.Pair``, the one place that scales A to M = D_A A, so this
module imports nothing but the standard library.  Nothing runs at import.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

# Integer polynomials are coefficient lists, highest degree first.


def _primitive(f: list[int]) -> list[int]:
    """f without leading zeros, divided by the gcd of its coefficients,
    which is positive, so every sign is kept."""
    f = f[next((i for i, x in enumerate(f) if x), len(f)):]
    g = math.gcd(*f)
    return [x // g for x in f] if g > 1 else f


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b, division-free
    (len(a) >= len(b)); the result has len(b) - 1 coefficients, leading zeros
    kept."""
    lb, n, r = b[0], len(b), a
    for _ in range(len(a) - n + 1):
        f = r[0]
        r = [lb * x - f * y for x, y in zip(r[1:n], b[1:])] + [lb * x for x in r[n:]]
    return r


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd of the nonzero a and b, deg b <= deg a, by primitive
    pseudo-remainders; [1] when they are coprime."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _primitive(_prem(a, b))
        if not r:
            return b
        a, b = b, r
    return [1]


def _at(f: Sequence[int], a: int, K: int) -> int:
    """f(a / 2^K) times 2^(K deg f), an integer of f's sign there."""
    v = 0
    for i, x in enumerate(f):
        v = v * a + (x << (K * i))
    return v


def enclose(f: Sequence[int], lo: int, hi: int, K: int) -> tuple[int, int]:
    """Bounds, times 2^(K deg f), on f over [lo / 2^K, hi / 2^K] by interval
    Horner (Moore 1966): each step multiplies the enclosure by the interval
    and adds the next coefficient.  Exact when lo == hi."""
    u = v = f[0]
    for i, x in enumerate(f[1:], 1):
        ends = (u * lo, u * hi, v * lo, v * hi)
        x <<= K * i
        u, v = min(ends) + x, max(ends) + x
    return u, v


def abs_bounds(u: int, v: int) -> tuple[int, int]:
    """Bounds on |x| for x in [u, v]."""
    return (u, v) if u >= 0 else (-v, -u) if v <= 0 else (0, max(-u, v))


def _charpoly(M: list[list[int]]) -> list[int]:
    """det(zI - M) of a square integer matrix, by Berkowitz's division-free
    recursion: the polynomial of each leading block times the Toeplitz column
    [1, -a, -R S, -R A S, ..., -R A^(r-1) S] of its bordering row R, column S
    and corner a gives the next one's."""
    p = [1]
    for r in range(len(M)):
        T, v = [1, -M[r][r]], [M[i][r] for i in range(r)]
        for _ in range(r):
            T.append(-sum(map(mul, M[r], v)))
            v = [sum(map(mul, M[i], v)) for i in range(r)]
        p = [sum(T[i - j] * p[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return p


# The relative width 2^-BITS of the root intervals at level 0, where a
# real-mode tail is first tried.
BITS = 16


def _bisect(p: list[int], K: int, roots: list[tuple[int, int]], bits: int,
            once: bool) -> tuple[int, list[tuple[int, int]]]:
    """The isolating intervals ``roots`` of p's roots, in descending order,
    with their ends over the common scale 2^K, each bisected (at least once
    when ``once``) until its width is at most 2^-bits times its larger end's
    modulus; with their new common scale.  A bisection reads only the sign
    of p at the midpoint: p has the sign (-1)^j just left of its j-th
    largest root, and a midpoint where p is 0 is the root."""
    finer = []
    for j, (lo, hi) in enumerate(roots, 1):
        d = 0
        while lo != hi and (once and not d or (hi - lo) << bits > max(-lo, hi)):
            d, mid = d + 1, lo + hi
            s = _at(p, mid, K + d)
            lo, hi = ((mid, mid) if not s else (mid, 2 * hi)
                      if (s > 0) == (j % 2 == 0) else (2 * lo, mid))
        finer.append((lo, hi, d))
    D = max(d for _, _, d in finer)
    return K + D, [(lo << (D - d), hi << (D - d)) for lo, hi, d in finer]


class RealSpectrum:
    """The characteristic polynomial p of an integer matrix M, all of whose
    N roots mu_1 > .. > mu_N are real and simple, with dyadic isolating
    intervals for them.

    ``level(L)`` holds the intervals, each of relative width at most
    2^-(BITS + L), with their endpoints as integers over the common scale
    2^K: a root found exactly is an interval with equal ends, and no
    interval holds 0 inside it.  ``bounds(L)`` holds the bounds on each
    |mu_j| and |p'(mu_j)| there (``enclose``, times 2^K and
    2^(K (N - 1))).  Each is built once for every system on M.
    """

    def __init__(self, p: list[int], K: int, roots: list[tuple[int, int]]):
        N = len(p) - 1
        self.p, self.dp = p, [x * (N - i) for i, x in enumerate(p[:N])]
        self._levels, self._bounds = [(K, roots)], {}

    def level(self, L: int) -> tuple[int, list[tuple[int, int]]]:
        """(K, the root intervals) at level L, each bisected at least once
        past level L - 1."""
        while len(self._levels) <= L:
            self._levels.append(_bisect(self.p, *self._levels[-1], BITS + len(self._levels),
                                        True))
        return self._levels[L]

    def bounds(self, L: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        if L not in self._bounds:
            K, roots = self.level(L)
            self._bounds[L] = ([abs_bounds(lo, hi) for lo, hi in roots],
                               [abs_bounds(*enclose(self.dp, lo, hi, K)) for lo, hi in roots])
        return self._bounds[L]

    def zeros_of(self, r: list[int]) -> set[int]:
        """The indices j of the roots mu_j that are roots of r, a divisor of p:
        r, squarefree as p is, changes sign across mu_j exactly then, and
        just beside an end of an interval that is a root of r it has the sign
        of +-r' there."""
        K, roots = self.level(0)
        dr = [x * (len(r) - 1 - i) for i, x in enumerate(r[:-1])]
        out = set()
        for j, (lo, hi) in enumerate(roots):
            if lo == hi:
                if not _at(r, lo, K):
                    out.add(j)
                continue
            left = _at(r, lo, K) or _at(dr, lo, K)
            right = _at(r, hi, K) or -_at(dr, hi, K)
            if (left > 0) != (right > 0):
                out.add(j)
        return out


def _newton_roots(p: list[int]) -> tuple[int, list[float]] | None:
    """(m, ws): float approximations ws, in descending order, of the roots
    of the monic integer p divided by 2^m, when they are all real, else
    possibly None.  With 2^m past Fujiwara's bound on the roots, the
    scaled polynomial p(2^m w) / 2^(m N) has coefficients of modulus at most
    about 1 whatever the size of p's, and roots of modulus below 1.
    Newton's method on a polynomial with only real roots descends
    monotonically to the largest one from any point above it (here 1, then
    the root last found); each root found is divided out, then polished on
    the scaled p.  Nothing here is proved: ``_certified_cells`` checks the
    result exactly."""
    m = 1 + max((-(-x.bit_length() // i) for i, x in enumerate(p[1:], 1)), default=0)
    f = [x / (1 << (m * i)) for i, x in enumerate(p)]

    def newton(f, x):
        v = d = 0.0
        for a in f:
            v, d = v * x + a, d * x + v
        step = v / d if d else math.inf
        return step if math.isfinite(step) else None

    x, out, g = 1.0, [], f[:]
    while len(g) > 1:
        for _ in range(200):
            step = newton(g, x)
            if step is None:
                return None
            x -= step
            if step <= abs(x) * 2e-16:
                break
        else:
            return None
        out.append(x)
        for i in range(1, len(g)):
            g[i] += g[i - 1] * x  # divide out w - x
        g.pop()
    for _ in range(2):
        out = [x - (newton(f, x) or 0.0) for x in out]
    return m, out


def _certified_cells(p: list[int], m: int,
                     ws: list[float]) -> tuple[int, list[tuple[int, int]]] | None:
    """Isolating intervals for the N roots of p, in descending order, over
    the common scale 2^K, from the approximations 2^m ws, or None where
    the exact signs do not bear them out.  Each approximation gets the
    dyadic cell of width 2^-k that holds it, of relative width about 2^-BITS
    or less, its ends integers over 2^K, K = max(k, 0); p must have the
    sign (-1)^j at the left end of the j-th cell and (-1)^(j-1) at its right
    end, or be 0 at an end, which is then a root.  N disjoint cells, each with a root, hold
    all N roots of p: so they are real and simple, one in each, and no
    cell holds 0 inside it."""
    k = max([BITS + 1 - m - math.frexp(w)[1] for w in ws if w], default=0)
    K, step = max(k, 0), 1 << max(-k, 0)  # a cell 2^-k wide, over 2^K
    cells = []
    for j, w in enumerate(ws, 1):
        n, d = w.as_integer_ratio()
        a = (n << (K + m)) // d
        a -= a % step
        left, right = _at(p, a, K), _at(p, a + step, K)
        if not left or not right:
            cells.append((a, a) if not left else (a + step, a + step))
        elif (left > 0) == (j % 2 == 0) and (right > 0) != (j % 2 == 0):
            cells.append((a, a + step))
        else:
            return None
    for (lo, hi), (lo2, hi2) in zip(cells, cells[1:]):
        if lo < hi2 or lo == hi2 and (lo == hi or lo2 == hi2):
            return None  # overlapping cells, or one root twice
    return K, cells


def real_spectrum(M: list[list[int]]) -> RealSpectrum | None:
    """The real simple spectrum of the square integer matrix M, the
    M = D_A A of an exact A that ``lti.Pair`` builds, the one place an exact
    pair becomes integers: when p = det(zI - M), computed division-free
    (``_charpoly``), has N real simple roots that Newton's method resolves
    in floats (``_newton_roots``) and exact signs bear out
    (``_certified_cells``); else None.  The roots' intervals are then
    bisected to a relative width of 2^-BITS."""
    p = _charpoly(M)
    approx = _newton_roots(p)
    cells = approx and _certified_cells(p, *approx)
    return cells and RealSpectrum(p, *_bisect(p, *cells, BITS, False))
