"""Coset projections and exceptional-direction censuses.

A direction W of codimension m projects E onto the p^m cosets of W; the
image size is between 1 and min(|E|, p^m).  For any threshold the number of
"exceptional" directions with a small image is bounded, and the censuses
here compare observed counts to those exact bounds.
"""

from fractions import Fraction

import numpy as np

from ffproj import (
    AmbientSpace,
    PointSet,
    census_fractional_image,
    census_small_image,
    coset_counts,
)
from ffproj.projections import census_at_scales, projection_sizes
from ffproj.subspaces import Subspace, enumerate_grassmannian

space = AmbientSpace(3, 2)
line = Subspace.from_rows(space, [(1, 0)]).point_set()

print("Projecting the line E = span{(1,0)} in F_3^2 along each direction:")
directions = list(enumerate_grassmannian(space, 1))
for W, counts in zip(directions, coset_counts(line, directions)):
    print(f"  direction {W.basis[0]}: image size {np.count_nonzero(counts)}, "
          f"coset counts {counts.tolist()}")

print("\nCensus: directions with image <= 1 (E is its own direction's coset):")
report = census_small_image(line, 1, 1)
print(f"  observed {report.observed} <= bound {float(report.bound):g}  "
      f"(satisfied: {report.satisfied})")

rng = np.random.default_rng(0)
big = AmbientSpace(7, 2)
E = PointSet(big, rng.random(49) < 0.4)
print(f"\nRandom E in F_7^2 with |E| = {E.cardinality}:")
_, sizes = projection_sizes(E, 1)
print(f"  image sizes over the {len(sizes)} directions: {sizes.tolist()}")

for N in (2, 4, 6):
    r = census_small_image(E, 1, N)
    print(f"  census image<={N}: observed {r.observed}, bound {float(r.bound):g}, "
          f"hypothesis_ok {r.hypothesis_ok}")

r = census_fractional_image(E, 1, Fraction(1, 2))
print(f"  census image<=p/2: observed {r.observed}, bound {float(r.bound):g}")

print("\nGraded census for a set of declared exponent s:")
reports = census_at_scales(E, 1, Fraction(3, 2), Fraction(1))
for kind, r in reports.items():
    print(f"  {kind:11s} threshold {float(r.threshold):5.1f}  observed {r.observed}  "
          f"bound {float(r.bound):8.3f}  asserted {r.hypothesis_ok}")
