#!/usr/bin/env python3
"""The Gerstenhaber bracket and p-power map on HH^1.

Cochains extend to coderivations of the tensor coalgebra; the bracket
is the projection of the coderivation commutator, and the p-th power
sigma_p makes HH^odd (all degrees when p = 2) a restricted Lie algebra.
For the dual numbers over GF(2) the structure on HH^1 is:

    [D_1, D_x] = D_1,   D_1^[2] = 0,   D_x^[2] = D_x
"""

import numpy as np

from derinv import GF, bracket, hh_cohomology, jacobson_si, sigma_p
from derinv.algebras import make_truncated_polynomial
from derinv.gerstenhaber import restricted_axioms_check

dual = make_truncated_polynomial(GF(2), 2)
coh = hh_cohomology(dual, 1)
d_one, d_x = coh.cochain(0), coh.cochain(1)

print("derivations of GF(2)[x]/(x^2) on the basis (1, x):")
print(f"  D_1 = {d_one.matrix.data.tolist()}   (x -> 1)")
print(f"  D_x = {d_x.matrix.data.tolist()}   (x -> x)")

lie = bracket(d_one, d_x)
print(f"  [D_1, D_x] class = {coh.class_coords(lie.flat())}  (= D_1)")
print(f"  sigma_2(D_1) class = {coh.class_coords(sigma_p(d_one).flat())}")
print(f"  sigma_2(D_x) class = {coh.class_coords(sigma_p(d_x).flat())}")

# Jacobson's formula: sigma_p(a + b) = sigma_p(a) + sigma_p(b) + sum s_i(a, b)
s = jacobson_si(d_one, d_x)
lhs = sigma_p(d_one + d_x)
total = sigma_p(d_one) + sigma_p(d_x)
for si in s:
    total = total + si
print(f"  Jacobson correction terms: {len(s)}; additivity holds: {lhs == total}")

# the restricted axioms, checked class-by-class with random inputs
t33 = make_truncated_polynomial(GF(3), 3)
for name, a, degrees in (("GF(2)[x]/(x^2)", dual, (1, 2)), ("GF(3)[x]/(x^3)", t33, (1,))):
    rep = restricted_axioms_check(a, degrees)
    print(f"\nrestricted axioms on {name}, degrees {degrees}: "
          f"all_passed={rep['all_passed']}")
    for deg, block in rep["degrees"].items():
        flags = {k: v for k, v in block.items() if isinstance(v, bool)}
        print(f"  degree {deg}: {flags}")
