"""Brute-force reference computations, kept independent of the library's paths.

Everything here works on tuples and frozensets of tuples, never on RREF
bases, coset labels, or the axis-wise transform, so agreement with the
library is a genuine cross-check.  The exceptions are
:func:`int64_coset_labels`, the library's label convention computed by an
int64 formula of its own rather than by the float64 label maps,
:func:`digit_loop_norms`, the built-in sets' x.x mod p in index order,
computed digit by digit rather than from a table of squares, and
:func:`tensordot_dft`, the axis-wise transform as first written, which pins
the bytes of ``dft`` rather than cross-checking its values.
"""

import itertools

import numpy as np


def all_vectors(p, n):
    return [v[::-1] for v in itertools.product(range(p), repeat=n)]


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c, v, p):
    return tuple(c * a % p for a in v)


def span_points(rows, p, n):
    """All linear combinations of the rows, as a frozenset of tuples."""
    rows = list(rows)
    points = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = (0,) * n
        for c, row in zip(coeffs, rows):
            v = vec_add(v, vec_scale(c, row, p), p)
        points.add(v)
    return frozenset(points)


def ordered_span_indices(rows, p, n):
    """Point indices of all combinations of the rows, in coefficient order.

    Entry i is sum_j c_j rows[j], where c_j is the j-th base-p digit of i
    (first one least significant), encoded as sum_t x_t p^t.
    """
    rows = list(rows)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = (0,) * n
        for c, row in zip(reversed(coeffs), rows):  # product varies its last entry fastest
            v = vec_add(v, vec_scale(c, row, p), p)
        out.append(sum(x * p**t for t, x in enumerate(v)))
    return out


def brute_subspace_pointsets(p, n, m):
    """Every m-dimensional subspace as a point set, via spans of all m-tuples."""
    vectors = all_vectors(p, n)
    seen = set()
    for rows in itertools.product(vectors, repeat=m):
        pts = span_points(rows, p, n)
        if len(pts) == p**m:
            seen.add(pts)
    if m == 0:
        seen = {frozenset({(0,) * n})}
    return seen


def brute_perp(subspace_points, p, n):
    """{x : x.w = 0 for every w in the subspace}, by scanning all vectors."""
    out = set()
    for x in all_vectors(p, n):
        if all(sum(a * b for a, b in zip(x, w)) % p == 0 for w in subspace_points):
            out.add(x)
    return frozenset(out)


def brute_cosets_hit(E_vectors, subspace_points, p):
    """Distinct cosets v + W met by E, as frozensets of points."""
    return {
        frozenset(vec_add(v, w, p) for w in subspace_points) for v in E_vectors
    }


def brute_coset_counts(E_vectors, subspace_points, p, n):
    """Sorted |E n (v + W)| over every coset of W (including empty ones).

    Each point of E lies in exactly one coset, its own v + W, so the nonempty
    counts come from the cosets of E's points; the other p^n / |W| cosets are
    empty.  This costs |E| |W| point additions, not p^n |W|, so it also runs
    at large p.
    """
    hits = {}
    for v in set(E_vectors):
        coset = frozenset(vec_add(v, w, p) for w in subspace_points)
        hits[coset] = hits.get(coset, 0) + 1
    empty = p**n // len(subspace_points) - len(hits)
    return [0] * empty + sorted(hits.values())


def brute_dft(E_vectors, p, n):
    """Direct double-loop transform; returns {xi: coefficient}."""
    out = {}
    for xi in all_vectors(p, n):
        total = 0j
        for x in E_vectors:
            phase = sum(a * b for a, b in zip(x, xi)) % p
            total += np.exp(-2j * np.pi * phase / p)
        out[xi] = total
    return out


def brute_energy(E_vectors, plane_pointsets):
    E = set(E_vectors)
    return sum(len(E & set(P)) ** 2 for P in plane_pointsets)


def brute_additive_energy(A, B, p):
    count = 0
    for a in A:
        for a2 in A:
            for b in B:
                for b2 in B:
                    if (a + b) % p == (a2 + b2) % p:
                        count += 1
    return count


def int64_coset_labels(W, indices):
    """Coset labels of point indices under a ``Subspace`` W, in int64 arithmetic.

    The canonical representative of x is x - x[pivots] @ B; its non-pivot
    coordinates, read in base p (first one least significant), are the label.
    """
    space = W.space
    p, n = space.p, space.n
    digits = np.asarray(indices, dtype=np.int64)[:, None] // p ** np.arange(n) % p
    if W.dim:
        piv = np.array(W.pivots, dtype=np.int64)
        reps = (digits - digits[:, piv] @ W.matrix) % p
    else:
        reps = digits
    nonpiv = np.array(W.nonpivot_columns(), dtype=np.int64)
    if nonpiv.size == 0:
        return np.zeros(len(digits), dtype=np.int64)
    return reps[:, nonpiv] @ p ** np.arange(nonpiv.size, dtype=np.int64)


def digit_loop_norms(p, width):
    """x.x mod p for every x in F_p^width in index order, one base-p digit at a time."""
    rem = np.arange(p**width, dtype=np.int64)
    total = np.zeros_like(rem)
    for _ in range(width):
        digit = rem % p
        total += digit * digit
        rem //= p
    return total % p


def tensordot_dft(mask, p, n):
    """The axis-wise transform as first written: cast, then one tensordot per axis.

    Every change to the transform's arithmetic must reproduce these bytes;
    BLAS results depend on operand layout, so a faster order need not.
    """
    j = np.arange(p)
    F = np.exp(-2j * np.pi * np.outer(j, j) / p)
    arr = mask.astype(np.complex128).reshape((p,) * n, order="F")
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(F, np.moveaxis(arr, axis, 0), axes=(1, 0)), 0, axis)
    return arr.reshape(-1, order="F")
