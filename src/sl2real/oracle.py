"""Independent brute-force ground truth.

Bounded enumeration of orientation-reversing involutions, of two-factor
splittings, and of det -1 conjugators carrying a matrix to its inverse.
Nothing here shares code with the constructive factorizer, and no
constructive module imports this one; agreement between the two routes
is what the test suite certifies.  Negative answers are bounded
evidence only, never proofs.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, product
from math import isqrt
from operator import mul

from .errors import NotSL2
from .mat2 import Mat2, is_real_structure

__all__ = [
    "enumerate_involutions",
    "brute_force_factor",
    "brute_force_conjugator",
    "integer_kernel",
]


def enumerate_involutions(bound: int) -> Iterator[Mat2]:
    """All J with J @ J == I, det J == -1, and |entries| <= bound.

    These are exactly (x y; z -x) with x^2 + yz = 1, emitted in
    lexicographic (x, y, z) order so that reported first witnesses are
    reproducible.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    for x in range(-bound, bound + 1):
        k = 1 - x * x  # need yz = k
        for y in range(-bound, bound + 1):
            if y == 0:
                if k == 0:
                    for z in range(-bound, bound + 1):
                        yield Mat2(x, 0, z, -x)
            elif k % y == 0 and abs(k // y) <= bound:
                yield Mat2(x, y, k // y, -x)


def brute_force_factor(m: Mat2, bound: int) -> tuple[Mat2, Mat2] | None:
    """First splitting m == j1 @ j2 into two real structures, or None.

    j1 runs over enumerate_involutions(bound); j2 = j1 @ m is accepted
    when it is itself a real structure with entries at most
    bound * (max |m| + 1).  The pair is checked before it is returned.
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    cap = bound * (m.max_abs_entry() + 1)
    for j1 in enumerate_involutions(bound):
        j2 = j1 @ m  # j1 is its own inverse
        if j2.max_abs_entry() <= cap and is_real_structure(j2):
            if j1 @ j2 != m or not is_real_structure(j1):
                raise RuntimeError("oracle factor witness failed verification")
            return j1, j2
    return None


def integer_column_kernel(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Primitive basis of {v integer vector : rows . v == 0}.

    Column reduction with Euclidean pivoting; the accumulated column
    transform is unimodular, so the trailing columns are automatically a
    primitive basis of the full kernel lattice.
    """
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0])
    mat = [list(r) for r in rows]
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    lead = 0
    for i in range(len(mat)):
        if lead >= n:
            break
        while True:
            nz = [j for j in range(lead, n) if mat[i][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(mat[i][j]))
            for j in nz:
                if j == j0:
                    continue
                step = mat[i][j] // mat[i][j0]
                if step:
                    for r in mat:
                        r[j] -= step * r[j0]
                    cols[j] = [a - step * b for a, b in zip(cols[j], cols[j0])]
        nz = [j for j in range(lead, n) if mat[i][j] != 0]
        if nz:
            j1 = nz[0]
            for r in mat:
                r[lead], r[j1] = r[j1], r[lead]
            cols[lead], cols[j1] = cols[j1], cols[lead]
            lead += 1
    kernel = []
    for j in range(lead, n):
        vec = cols[j]
        first = next((x for x in vec if x != 0), 1)
        if first < 0:
            vec = [-x for x in vec]
        kernel.append(tuple(vec))
    return kernel


def _commutation_rows(a: Mat2, b: Mat2) -> list[list[int]]:
    """Rows of the linear system Q @ a - b @ Q == 0 in Q = (x y; z w)."""
    return [
        [a.a - b.a, a.c, -b.b, 0],
        [a.b, a.d - b.a, 0, -b.b],
        [-b.c, 0, a.a - b.d, a.c],
        [0, -b.c, a.b, a.d - b.d],
    ]


def integer_kernel(m: Mat2) -> tuple[tuple[int, ...], ...]:
    """Basis of the solution lattice of Q @ m == m.inverse() @ Q over
    the integers, as (x, y, z, w) 4-tuples of Q = (x y; z w).

    Rank 2 for every non-central m and 4 for +-identity, never 0: as
    m^-1 = tr(m) I - m, Q anticommutes with the traceless
    N = 2m - tr(m) I, and Q N + N Q = tr(Q) N + tr(Q N) I, so the
    system is tr Q = 0 and tr(Q N) = 0, independent unless N = 0.  Any
    lattice point Q with det Q = -1 satisfies both Q m Q^-1 = m^-1 and
    Q^-1 m Q = m^-1.
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    rows = _commutation_rows(m, m.inverse())
    return tuple(integer_column_kernel(rows))


def _invertible_minor(vectors) -> tuple[tuple[int, ...], list[list[Fraction]]] | None:
    """(rows, inverse) for the first k of the four entries, in
    lexicographic order, on which the k vectors (as columns) form an
    invertible k x k matrix; None when the vectors are dependent."""
    from fractions import Fraction

    k = len(vectors)
    for rows in combinations(range(4), k):
        aug = [[Fraction(v[i]) for v in vectors] + [int(i == j) for j in rows] for i in rows]
        for col in range(k):
            pivot = next((i for i in range(col, k) if aug[i][col] != 0), None)
            if pivot is None:
                break
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for i in range(k):
                if i != col and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        else:
            return rows, [row[k:] for row in aug]
    return None


def _coefficient_box(vectors, bound: int) -> tuple[int, ...]:
    """Per-coordinate search radius covering every lattice point with
    entries bounded by `bound`, via the inverse of an invertible k x k
    submatrix of the basis.

    A lattice point x = sum_j c_j v_j has coordinates c = inv x_R, for
    the minor's rows R and its inverse inv, so
    |c_i| <= sum_j |inv_ij| |x_R_j| <= bound * S_i with
    S_i = sum_j |inv_ij| when every |x_R_j| <= bound.  c_i is an
    integer, so |c_i| <= floor(bound * S_i), the radius returned (int
    of a non-negative Fraction is its floor).  Every coefficient tuple
    past it has an entry over the bound, so the search skips only
    tuples it would reject, and finds the same first witness.

    A minor can be near singular where the lattice is not: for
    (0 -1; 1 t) the radius grows with t.  So a rank-2 radius is also cut
    by the Gram bound: c_i = <x, w_i> for the dual basis w, whose squared
    lengths are the diagonal of the inverse Gram matrix (g22, g11) / det,
    and |x|^2 <= 4 bound^2, so c_i^2 <= 4 bound^2 g_jj / det.
    """
    minor = _invertible_minor(vectors)
    if minor is None:
        raise RuntimeError("lattice basis vectors are not independent")
    box = tuple(int(bound * sum(abs(x) for x in row)) for row in minor[1])
    if len(vectors) == 2:
        (g11, g12), (_, g22) = [[sum(map(mul, u, v)) for v in vectors] for u in vectors]
        det = g11 * g22 - g12 * g12
        box = tuple(min(r, isqrt(4 * bound * bound * g // det)) for r, g in zip(box, (g22, g11)))
    return box


def brute_force_conjugator(m: Mat2, bound: int) -> Mat2 | None:
    """First Q with |entries| <= bound, det Q = -1, Q m Q^-1 = m^-1.

    Enumerates the solution lattice of the linear constraint instead of
    raw 4-entry space, then filters on determinant.  Returns None when
    no such Q exists within the bound.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if m.det != 1:
        raise NotSL2("det != 1")
    basis = integer_kernel(m)
    box = _coefficient_box(basis, bound)
    for coeffs in product(*(range(-r, r + 1) for r in box)):
        entries = [
            sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4)
        ]
        if max(abs(e) for e in entries) > bound:
            continue
        q = Mat2(*entries)
        if q.det != -1:
            continue
        if q @ m @ q.inverse() == m.inverse():
            return q
    return None
