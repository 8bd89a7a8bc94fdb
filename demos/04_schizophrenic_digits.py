#!/usr/bin/env python3
"""Square roots of the a-sequence look rational, then fall apart, then recover.

sqrt(a(n, 10)) for odd n opens with a long run of ones, collapses into
noise, recovers with a run of fives, and so on; the runs shrink while the
noise between them grows.  The reciprocals do the same with runs of zeros.
Everything below is exact integer arithmetic; digits are truncated, never
rounded, so higher precision extends a dump without rewriting it.
"""

from chipfire import a_seq, block_report, inv_sqrt_digits, schizo_survey, sqrt_digits

value = a_seq(11, 10)
print(f"a(11, 10) = {value}")
dump = sqrt_digits(value, 53)
print(f"sqrt = {dump}")
for b in block_report(dump, min_run=4):
    side = "crossing the decimal point" if b.start < 0 else f"at offset {b.start}"
    print(f"  block of {b.length} x digit {b.digit} {side}")

print()
value = a_seq(19, 10)
print(f"a(19, 10) = {value}")
dump = sqrt_digits(value, 65)
print(f"sqrt = {dump}")
lengths = [b.length for b in block_report(dump, min_run=6)]
print(f"  block lengths {lengths}: bigger pile, longer runs, same decay")

print()
inv = inv_sqrt_digits(value, 64)
print(f"1/sqrt = {inv}")
print("  reciprocal blocks are always zeros:",
      [(b.digit, b.length) for b in block_report(inv, min_run=4)])

print("\nsurvey over odd n, base 10, 80 digits:")
for entry in schizo_survey(10, 13, 80, min_run=5):
    runs = [(b.digit, b.length) for b in entry.root_blocks]
    print(f"  n = {entry.n:>2}: sqrt blocks {runs if runs else '(none yet)'}")
