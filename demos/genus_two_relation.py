"""The 81-term genus-2 ternary relation.

For n = 3 and genus 2 the shift lattice has 3^4 = 81 representatives;
every coefficient is a cube root of unity.  This script builds the term
list, tallies the coefficients, and verifies the relation at random
period matrices with positive-definite imaginary part.
"""

import time
from collections import Counter

from thetarel import RelationSpec, build_relation, overall_verdict, verify

spec = RelationSpec.create(3, 2)
terms = build_relation(spec)
print(f"term count: {len(terms)}")
tally = Counter((3 * t.exponent) % 3 for t in terms)
print("coefficient tally over the 81 shifts:")
for power in sorted(tally):
    label = {0: "1", 1: "omega", 2: "omega^2"}[int(power)]
    print(f"  {label:8s} x {tally[power]}")
print()

start = time.perf_counter()
reports = verify(spec, 5)
elapsed = time.perf_counter() - start
worst = max(r.rel_error for r in reports if r.status == "ok")
print(f"5 random genus-2 trials in {elapsed:.2f}s: "
      f"{overall_verdict(reports, 1e-8)}, max rel error {worst:.3e}")
