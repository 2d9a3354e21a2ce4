"""Falsification harness: the uncorrected coefficient rule fails.

The uncorrected exponent -(sum mu' + n a').a'' collapses every
coefficient of the all-zero n=4 relation to +1 (because 4 a'.a'' is an
integer on half-integer shifts), erasing the minus sign the relation
needs.  Generic arguments expose the error immediately.  The harness
resamples near-degenerate points, so a run that finds no counterexample
says so instead of manufacturing one; n=2, where the uncorrected rule is
actually right, demonstrates that honest outcome.
"""

from thetarel import CoefficientMode, RelationSpec, verify

print("n = 4, uncorrected coefficients (all +1), 10 generic trials:")
spec = RelationSpec.create(4, 1, mode=CoefficientMode.NAIVE)
for r in verify(spec, 10):
    print(f"  trial {r.seed_index}: |lhs-rhs|/scale = {r.rel_error:.3e}  [{r.status}]")
errors = [r.rel_error for r in verify(spec, 10) if r.status == "ok"]
print(f"  worst deviation {max(errors):.3e} -> the signed rule is necessary")
print()

print("n = 3, uncorrected multiplier kappa = 3 (conjugated omegas):")
spec3 = RelationSpec.create(3, 1, mode=CoefficientMode.NAIVE)
errors = [r.rel_error for r in verify(spec3, 5) if r.status == "ok"]
print(f"  worst deviation {max(errors):.3e} -> odd n needs kappa = 6 too")
print()

print("n = 2, where the uncorrected rule is correct (plain swap):")
spec2 = RelationSpec.create(2, 1, mode=CoefficientMode.NAIVE)
for r in verify(spec2, 3):
    print(f"  trial {r.seed_index}: status = {r.status}")
print("  every resample agreed; the harness flags trials rather than")
print("  pretending to have found a counterexample")
