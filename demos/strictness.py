"""Why a bare product of two congruence classes is not a congruence class.

R_19(3) * R_19(5) sits inside R_19(15), but the inclusion is strict: 53 is
congruent to 15 mod 19, yet 53 is prime, so its only factorizations are
(1)(53) and (-1)(-53) and neither factor pair lands in (3, 5) mod 19.  Adding
a second product term repairs this completely; a single product never does.
"""

from sumprod import CongruenceClass, product_class_contains, strictness_demo

r3, r5, r15 = CongruenceClass(3, 19), CongruenceClass(5, 19), CongruenceClass(15, 19)

print("53 in R_19(15)?        ", r15.contains(53))
ok, pair = product_class_contains(r3, r5, 53)
print("53 in R_19(3)*R_19(5)? ", ok)

ok, pair = product_class_contains(r3, r5, 72)
print("72 in R_19(3)*R_19(5)? ", ok, "via", pair)

# one-sided version: scan the progression P_19(15) for gaps
print("\nmembers of P_19(15) up to 400 missing from P_19(3)*P_19(5):")
rep = strictness_demo(400)
for n in rep.non_representable:
    tag = "prime" if n in rep.primes_found else "composite"
    print(f"  {n:4d}  ({tag})")

rep = strictness_demo(2000)
print(
    f"\nscan to 2000: {len(rep.non_representable)} gaps, "
    f"{len(rep.primes_found)} of them prime"
)
print("every prime ≡ 15 (mod 19) is such a gap, and there are infinitely many,")
print("so the product set never eventually coincides with the progression.")
