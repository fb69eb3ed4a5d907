"""Brute-force reference computations, kept independent of the library's paths.

Everything here works on tuples and frozensets of tuples, never on RREF
bases, coset labels, or the axis-wise transform, so agreement with the
library is a genuine cross-check.  The exceptions are :func:`rref_fault`,
the canonical-form check as first written, one row at a time in Python,
whose verdicts the batched check must reproduce, and
:func:`int64_coset_labels`, the library's label convention computed by an
int64 formula of its own rather than by the float64 label maps,
:func:`digit_loop_norms`, the built-in sets' x.x mod p in index order,
computed digit by digit rather than from a table of squares,
:func:`tensordot_dft`, the axis-wise transform as first written, which pins
the bytes of ``dft`` rather than cross-checking its values, and
:func:`token_cast_load_point_set`, the point-file parser as first written,
whose results and error messages the one-pass parser must reproduce, and
:func:`fraction_compare_to_power` and :func:`fraction_satisfied_by`, the
exact bound decisions as first written, in ``Fraction`` arithmetic, whose
signs the integer cross-products must reproduce, and :func:`loop_cell_checks`
and :func:`loop_set_checks`, the identity suite's checks as first written,
one record per instance, whose manifests and full failure lists the array
decisions must reproduce, and :func:`one_draw_mask`, the percolation
sampler as first written, whose masks the block-drawn sampler must
reproduce bit for bit.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np

from ffproj.core import IdentityError, PointSet, _read_header


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


@functools.lru_cache(maxsize=None)
def brute_containment_counts(p, n, m):
    """For each nonzero xi: (|{V : xi in V}|, |{V : xi in Per(V)}|) over the m-dimensional V.

    Keys are coordinate tuples.  The whole space is the one V of dimension n.
    """
    vectors = all_vectors(p, n)
    subspaces = [frozenset(vectors)] if m == n else brute_subspace_pointsets(p, n, m)
    counts = {}
    for xi in vectors[1:]:
        inside = sum(xi in V for V in subspaces)
        dual = sum(all(sum(a * b for a, b in zip(xi, v)) % p == 0 for v in V) for V in subspaces)
        counts[xi] = (inside, dual)
    return counts


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


def one_draw_mask(model, trial):
    """A percolation trial's mask from one draw of p^n uniforms of a fresh Philox(key=(seed, t))."""
    rng = np.random.Generator(np.random.Philox(key=np.array([model.seed, trial], dtype=np.uint64)))
    return rng.random(model.space.point_count) < model.delta


def loop_spectral_energy(E_vectors, bases, p, n, m):
    """The spectral side of the energy identity over the m-dimensional subspaces V with ``bases``.

    Each V adds p^(m-n) times the Fourier mass of Per(V), with no transform:
    |E|^2 at its origin, and p M(xi^perp) - |E|^2 for each line <xi> of
    Per(V), M the sum of the squared coset counts of E along xi^perp.  Per(V)
    and xi^perp come from :func:`brute_perp`, M from :func:`brute_coset_counts`.
    With ``bases`` all of G(n, m) this is the energy over A(n, m), as a Fraction.
    """
    size = len(set(E_vectors))
    powers = {}  # per line, keyed by its point whose first non-zero entry is 1
    total = 0
    for basis in bases:
        total += size**2
        for xi in brute_perp(basis, p, n):
            if [x for x in xi if x][:1] != [1]:
                continue
            if xi not in powers:
                counts = brute_coset_counts(E_vectors, brute_perp([xi], p, n), p, n)
                powers[xi] = p * sum(c * c for c in counts) - size**2
            total += powers[xi]
    return Fraction(total * p**m, p**n)


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


def brute_plane(basis, rep, p, n):
    """The plane rep + span(basis), as a frozenset of tuples."""
    return frozenset(vec_add(rep, w, p) for w in span_points(basis, p, n))


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


def rref_fault(bases, p):
    """The first RREF fault of a (G, k, n) stack of bases mod p, by a word of its message, or None.

    In the library's order, over the whole stack: an entry that is no
    residue in [0, p), a zero row, pivots (first nonzero entries) that do
    not strictly increase, a pivot column that is no unit column.
    """
    bases = np.asarray(bases).tolist()
    rows = [row for basis in bases for row in basis]
    if any(not 0 <= c < p for row in rows for c in row):
        return "residues"
    if not all(any(row) for row in rows):
        return "zero row"
    pivots = [[next(j for j, c in enumerate(row) if c) for row in basis] for basis in bases]
    if any(a >= b for piv in pivots for a, b in zip(piv, piv[1:])):
        return "strictly increase"
    for basis, piv in zip(bases, pivots):
        for i in range(len(basis)):
            if any(row[piv[i]] != (k == i) for k, row in enumerate(basis)):
                return "unit column"
    return None


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


def token_cast_load_point_set(path):
    """The ``ffpointset v1`` parser as first written: one token cast, else a line scan."""
    with open(path, "r", encoding="ascii") as fh:
        space = _read_header(fh)
        lines = [line.strip() for line in fh.read().split("\n")]

    # fast path: every row has n fields, and one cast parses the whole body
    rows = [line for line in lines if line]
    valid = all(row.count(",") == space.n - 1 for row in rows)
    if valid:
        try:
            coords = np.array(",".join(rows).split(",") if rows else [], dtype=np.int64)
            valid = bool(((coords >= 0) & (coords < space.p)).all())
        except (ValueError, OverflowError):
            valid = False
    if valid:
        weights = space.p ** np.arange(space.n, dtype=np.int64)
        return PointSet.from_indices(space, coords.reshape(-1, space.n) @ weights)
    for lineno, line in enumerate(lines, start=2):  # the first bad line, as a line scan finds it
        if not line:
            continue
        try:
            coords = tuple(int(c) for c in line.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad coordinates {line!r}") from exc
        space.validate_vector(coords)
    raise IdentityError("no bad line found in a point file that failed to parse")


def fraction_compare_to_power(value, base, exponent):
    """``projections.compare_to_power`` as first written: Fraction powers."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    q = exponent.denominator
    lhs = value**q
    rhs = Fraction(base) ** exponent.numerator
    return (lhs > rhs) - (lhs < rhs)


def fraction_satisfied_by(bound, observed):
    """``ExactBound.satisfied_by`` as first written: a Fraction quotient against the power."""
    if bound.coeff <= 0:
        return observed <= 0 and bound.coeff == 0
    quotient = Fraction(observed) / bound.coeff
    return fraction_compare_to_power(quotient, bound.base, bound.exponent) <= 0


def _record(check, ok, **witness):
    """One instance of a ``suite._Check``, its witness kept if it fails."""
    check.instances += 1
    if not ok:
        check.failures.append(witness)


def _bases(arrays):
    return {d: [tuple(map(tuple, W)) for W in G.bases.tolist()] for d, G in arrays.items()}


def loop_cell_checks(cell, checks):
    """``suite._cell_checks`` as first written: one record per instance, every witness built.

    Gaussian binomials are read from ``suite.gaussian_binomial`` at call time, so a
    fault injected there reaches both routes.  The character sums are decided at
    every x of F_p^n from a pure-Python histogram of x.y over the dual list.
    """
    from ffproj import suite
    from ffproj.core import decode
    from ffproj.subspaces import _dual_bases

    binomial = suite.gaussian_binomial
    space, arrays, duals, members, dual_points, _ = cell
    bases = _bases(arrays)
    p, n = space.p, space.n
    for m in range(n + 1):
        observed = len(arrays[m])
        expected = binomial(n, m, p)
        _record(
            checks["binomial_vs_enumeration"], observed == expected, p=p, n=n, m=m,
            observed=observed, expected=expected,
        )

    for m in range(1, n):
        g = binomial(n, m, p)
        low = binomial(n - 1, m, p) + p ** (n - m) * binomial(n - 1, m - 1, p)
        high = binomial(n - 1, m - 1, p) + p**m * binomial(n - 1, m, p)
        sym = binomial(n, n - m, p)
        _record(
            checks["pascal_identities"], g == low == high and g == sym, p=p, n=n, m=m,
            value=g, recurrence_low=low, recurrence_high=high, symmetric=sym,
        )

    cases = [("member", m, members[m], binomial(n - 1, m - 1, p)) for m in range(1, n + 1)]
    cases += [("dual", m, dual_points[m], binomial(n - 1, m, p)) for m in range(n)]
    for kind, m, points, expected in cases:
        bad = np.flatnonzero(np.bincount(points.ravel(), minlength=p**n)[1:] != expected)
        _record(
            checks["containment_counts"], bad.size == 0, p=p, n=n, m=m, kind=kind,
            expected=expected,
            first_bad_xi=int(bad[0] + 1) if bad.size else None,
        )

    # the cell's duals, dualised again by the library's elimination (not the suite's name
    # for it, which a fault may replace: the fault is in the cell's duals, not in this check)
    canonical = [m for m, P in duals.items() if rref_fault(P.bases, p) is None]
    back = dict(zip(canonical, _dual_bases([duals[m] for m in canonical])))
    for m, G in arrays.items():
        P = duals[m]
        involutive = m in back and bool(np.array_equal(back[m].bases, G.bases))
        distinct = len(set(map(tuple, P.bases.reshape(len(P), -1).tolist())))
        bijective = distinct == len(G) and P.dim == n - m
        _record(
            checks["perp_duality"], involutive and bijective, p=p, n=n, m=m,
            involutive=involutive, bijective=bijective,
        )

    # x.y mod p for every pair of points, then each x's histogram over each dual list
    vectors = [decode(space, i) for i in range(p**n)]
    products = [[sum(a * b for a, b in zip(x, y)) % p for y in vectors] for x in vectors]
    for k in range(n):
        dual_size = p ** (n - k)
        for V, inside, dual in zip(bases[k], members[k].tolist(), dual_points[k].tolist()):
            inside, failing = set(inside), 0
            for x, row in enumerate(products):
                c = [0] * p
                for y in dual:
                    c[row[y]] += 1
                expected = dual_size if x in inside else 0
                failing += not (c[1:] == [c[1]] * (p - 1) and c[0] - c[1] == expected)
            _record(
                checks["character_sums"], failing == 0,
                p=p, n=n, dim=k, subspace=V, failing_x=failing,
            )


def loop_set_checks(cell, sets, columns, checks):
    """``suite._set_checks`` as first written: :func:`loop_per_set_checks` set by set.

    The array route's dual sums (the last column) are not read: the loop builds
    each set's spectral sides itself.
    """
    arrays = cell[1]
    starts = np.cumsum([0] + [len(G) for G in arrays.values()])
    bases = _bases(arrays)
    for k, (set_name, E) in enumerate(sets):
        held = {d: [c[starts[d] : starts[d + 1], k] for c in columns[:-1]] for d in arrays}
        loop_per_set_checks(cell, bases, E, set_name, held, checks)


def loop_dual_sums(cell, size, hyperplane_moments):
    """Per G(n, d), the sums over each Per(W) of the power table, built line by line.

    Each non-zero point of a hyperplane's dual line takes that line's power
    p M(xi^perp) - |E|^2 (from ``suite._line_powers``, one line at a time; a
    later line overwrites an earlier one), the origin (p - 1) |E|^2, and every
    other point 0.  All in Python ints.
    """
    from ffproj import suite

    space, arrays, dual_points = cell[0], cell[1], cell[4]
    p, n = space.p, space.n
    power = [0] * p**n
    for line, moment in zip(dual_points[n - 1].tolist(), hyperplane_moments.tolist()):
        line_power = suite._line_powers(p, size, moment)
        for xi in line:
            power[xi] = line_power
    power[0] = (p - 1) * size**2
    return {d: [sum(power[xi] for xi in points) for points in dual_points[d].tolist()]
            for d in arrays}


def loop_per_set_checks(cell, bases, E, set_name, held, checks):
    """Every check on one set, direction by direction, from its columns of the held sweeps.

    ``held[d]`` holds the set's column of each of ``suite._direction_reductions``'
    arrays over G(n, d); the spectral sides come from :func:`loop_dual_sums`.
    The census and key-lemma instances go through the library's census
    functions and ``key_lemma_check``, with Fraction bounds.
    """
    from ffproj import suite
    from ffproj.energy import energy_identity_closed_form, key_lemma_check
    from ffproj.projections import census_fractional_image, census_small_image

    binomial = suite.gaussian_binomial  # as in loop_cell_checks
    space, arrays = cell[0], cell[1]
    p, n = space.p, space.n
    size = E.cardinality
    dual_sums = loop_dual_sums(cell, size, held[n - 1][2])
    _record(
        checks["plancherel"], dual_sums[0][0] == (p - 1) * p**n * size, p=p, n=n,
        set=set_name, lhs=dual_sums[0][0], rhs=p**n * size, scale=p - 1,
    )
    for d in range(n + 1):
        energy, spectral = 0, 0  # energy(E, A(n,d)) and its spectral side, summed over W
        n_cosets = p ** (n - d)
        scale = (p - 1) * n_cosets
        for W, total, image, lhs, dual_image, same, rhs in zip(
            bases[d], *(column.tolist() for column in held[d]), dual_sums[d]
        ):
            where = {"p": p, "n": n, "set": set_name, "subspace": W}
            _record(
                checks["coset_decomposition"],
                total == size
                and image == dual_image
                and (size == 0 or 1 <= dual_image <= min(size, n_cosets)),
                **where,
            )
            _record(checks["cauchy_schwarz"], size**2 <= image * lhs, **where)
            _record(
                checks["subspace_plancherel"], scale * lhs == rhs,
                **where, lhs=lhs, rhs=rhs, scale=scale,
            )
            energy += lhs
            spectral += rhs
            if 1 <= d <= n - 1:
                _record(checks["projection_duality"], same, **where)

        rhs = energy_identity_closed_form(space, size, d)
        low = binomial(n - 1, d, p) if d <= n - 1 else 0
        high = binomial(n - 1, d - 1, p) if d >= 1 else 0
        rhs_injected = size * p**d * low + size**2 * high
        _record(
            checks["energy_identity"], energy == rhs == rhs_injected, p=p, n=n, m=d,
            set=set_name, combinatorial=energy, closed_form=rhs_injected,
        )
        _record(
            checks["energy_identity_spectral"], spectral == scale * rhs,
            p=p, n=n, m=d, set=set_name, spectral=spectral, closed_form=rhs, scale=scale,
        )

    for m in range(1, n):
        directions = arrays[n - m]
        sweep = (directions, held[n - m][1])
        if size:
            for N in sorted({1, size // 4} - {0}):
                report = census_small_image(E, m, N, sweep=sweep)
                if report.hypothesis_ok and report.range_condition_ok:
                    _record(
                        checks["census_bounds"], bool(report.satisfied), p=p, n=n, m=m,
                        set=set_name, kind="small_image", N=N, observed=report.observed,
                    )
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                report = census_fractional_image(E, m, delta, sweep=sweep)
                if report.hypothesis_ok and report.range_condition_ok:
                    _record(
                        checks["census_bounds"], bool(report.satisfied), p=p, n=n, m=m,
                        set=set_name, kind="fractional_image", delta=str(delta),
                        observed=report.observed,
                    )
        half = max(1, len(directions) // 2)
        for theta_name, theta in (("all", directions), ("half", directions[:half])):
            result = key_lemma_check(E, theta, held[n - m][2][: len(theta)])
            if result.condition_ok:
                _record(
                    checks["energy_bounds"], result.ok, p=p, n=n, m=m, set=set_name,
                    theta=theta_name, energy=result.energy,
                    bound_pairs=float(result.bound_pairs),
                    bound_fourier=float(result.bound_fourier),
                )
