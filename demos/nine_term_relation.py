"""The nine-term ternary relation, generated and verified.

For n = 3 (cycle number 3) the product of three theta values transforms
into a sum over the nine third-integer shifts.  This script prints the
exact term list, renders it as LaTeX, verifies it numerically at random
points, and demonstrates why the coefficient multiplier must be
lambda*(lambda+1)/2 = 6 rather than lambda = 3 for odd n: the two
choices conjugate the omega coefficients, and only one matches the
series numerically.
"""

from thetarel import (
    CoefficientMode,
    RelationSpec,
    build_relation,
    coefficient_kappa,
    overall_verdict,
    verify,
)
from thetarel.render import relation_to_latex

spec = RelationSpec.create(3, 1)
terms = build_relation(spec)
print(f"kappa(modified) = {coefficient_kappa(3, CoefficientMode.MODIFIED)}, "
      f"kappa(naive) = {coefficient_kappa(3, CoefficientMode.NAIVE)}")
print()
print("term list (shift -> coefficient exponent, coefficient = e[x]):")
for t in terms:
    omega_power = (3 * t.exponent) % 3
    tag = {0: "1", 1: "omega", 2: "omega^2"}[int(omega_power)]
    print(f"  ({str(t.shift):>8s})  x = {str(t.exponent):>4s}   {tag}")
print()
print("LaTeX fragment:")
print(" ", relation_to_latex(spec, terms))
print()

reports = verify(spec, 50)
worst = max(r.rel_error for r in reports if r.status == "ok")
print(f"verified on 50 random trials: {overall_verdict(reports, 1e-9)}, "
      f"max rel error {worst:.3e}")
print()

naive = RelationSpec.create(3, 1, mode=CoefficientMode.NAIVE)
reports = verify(naive, 5)
worst = max(r.rel_error for r in reports if r.status == "ok")
print("with kappa = 3 instead (which flips omega <-> omega^2 on the")
print(f"nontrivial shifts) the same trials fail: max rel error {worst:.3e}")
