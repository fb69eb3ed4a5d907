"""Generalized energy over plane families.

family_energy(E, directions, labels) = sum over planes of |E n plane|^2, for a
family that names each plane by its direction and its coset label.  Over
the full family A(n,m) it collapses to |E| p^m C(n-1,m)_p + |E|^2
C(n-1,m-1)_p, verified here combinatorially and through the spectral route,
both in exact arithmetic.
The additive energy of A, B in F_p is the line-family special case.
"""

import numpy as np

from ffproj import (
    AmbientSpace,
    PointSet,
    additive_energy,
    family_energy,
    key_lemma_check,
    product_set,
    sum_lines,
    verify_energy_identity,
    verify_energy_identity_fourier,
)
from ffproj.subspaces import enumerate_grassmannian

space = AmbientSpace(3, 2)
rng = np.random.default_rng(1)

print("Energy identity over A(2,1) in F_3^2 (12 lines):")
for size in (0, 1, 2, 5, 9):
    idx = rng.choice(9, size=size, replace=False)
    E = PointSet.from_indices(space, idx)
    lhs, rhs, equal = verify_energy_identity(E, 1)
    spectral, _, spectral_equal = verify_energy_identity_fourier(E, 1)
    print(f"  |E|={size}: combinatorial {lhs} = closed form {rhs} "
          f"(spectral {spectral}, equal: {equal and spectral_equal})")

print("\nAdditive energy = line-family energy of the product set:")
p = 7
A, B = {0, 1, 3}, {0, 2, 5, 6}
ae = additive_energy(A, B, p)
le = family_energy(product_set(A, B, p), *sum_lines(p))  # p lines, one direction
print(f"  E(A,B) = {ae} over F_{p}, family_energy(A x B, lines x+y=k) = {le}")

print("\nEnergy of a random set over the coset expansion of a direction set,")
print("against its two exact upper bounds:")
big = AmbientSpace(5, 2)
directions = list(enumerate_grassmannian(big, 1))
for size in (4, 10, 20):
    idx = rng.choice(25, size=size, replace=False)
    E = PointSet.from_indices(big, idx)
    result = key_lemma_check(E, directions)
    kind = "pairs" if result.bound_pairs <= result.bound_fourier else "fourier"
    print(f"  |E|={size:2d}: energy {result.energy:4d} <= "
          f"min({float(result.bound_pairs):6.1f}, {float(result.bound_fourier):6.1f})"
          f"  (tighter: {kind}, ok: {result.ok})")
