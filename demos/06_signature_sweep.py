#!/usr/bin/env python3
"""Signature sweep over a family: which truncated polynomial algebras
and group algebras can be told apart at desk scale?

Signatures only ever certify difference; equal signatures are
inconclusive.  Matrix algebras M_2(A) are derived equivalent to A, so
they must (and do) come out INCONCLUSIVE against A every time."""

from derinv import GF, SignatureConfig, compare, compute_signature, make_group_algebra
from derinv.algebras import cyclic_table, klein_table, make_matrix_algebra, make_truncated_polynomial

cfg = SignatureConfig(m_max=2, kappa_pairs=((0, 1), (0, 2)))

family = [
    ("GF(2)[C4]", make_group_algebra(GF(2), cyclic_table(4))),
    ("GF(2)[C2xC2]", make_group_algebra(GF(2), klein_table())),
    ("GF(2)[x]/(x^4)", make_truncated_polynomial(GF(2), 4)),
]

sigs = [(name, compute_signature(a, cfg)) for name, a in family]

print("pairwise verdicts:")
for i in range(len(sigs)):
    for j in range(i + 1, len(sigs)):
        rep = compare(sigs[i][1], sigs[j][1])
        mark = ""
        if rep["differences"]:
            d = rep["differences"][0]
            mark = f"  (first diff {d['key']}: {d['a']} vs {d['b']})"
        print(f"  {sigs[i][0]:16s} vs {sigs[j][0]:16s} {rep['verdict']}{mark}")

print()
print("Morita controls (A vs M_2(A)):")
for name, a in family:
    rep = compare(compute_signature(a, cfg), compute_signature(make_matrix_algebra(a, 2), cfg))
    print(f"  {name:16s} vs M_2: {rep['verdict']}, {rep['shared_entries']} shared entries")
