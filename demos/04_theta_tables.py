"""Theta correspondence tables for the compact dual pairs.

Each entry pairs a compact-group highest weight (with a sign character where
the group is disconnected) with the lowest weight of the irreducible
highest-weight module on the noncompact side.  The branching identity

    oscillator character = sum over entries of compact x L^2 characters

is checked coefficient-exactly on a window.  The two independent routes to
the L^2 characters (sign-character bookkeeping vs minimal coset
representatives) are finite sums of Levi characters in front of one common
tail, and they are compared as whole characters.
"""

from superdenom import make_pair

for tag, kw in [
    ("B", dict(m=1, n=2)),
    ("D2", dict(m=2, n=1)),
    ("D1", dict(m=2, n=2)),
    ("GL", dict(n=1, p=1, q=1)),
]:
    pair = make_pair(tag, **kw)
    print(f"== {tag} pair, parameters {kw} ==")
    for entry in pair.sigma_set(3):
        print(
            f"  a={entry.partition}  sign={entry.sign:4s}  "
            f"compact hw = {entry.compact_weight}   L2 lowest = {entry.l2_lowest}"
        )
    rep = pair.verify_duality(8)
    print(f"  branching identity at depth 8: {'pass' if rep.passed else 'FAIL'}")
    entry = pair.sigma_set(2)[-1]
    rep = pair.verify_enright(entry)
    print(f"  Enright route equals the flip-group route as whole characters: {rep.passed}")
    print()
