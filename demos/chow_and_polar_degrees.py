#!/usr/bin/env python3
"""Chow form of the twisted cubic and polar degrees, step by step.

The lines of P^3 that meet the twisted cubic form a hypersurface in
the Pluecker quadric; its defining form has the curve's degree.  The
polar degrees are the degrees of every associated hypersurface: the
Chow level's is the degree of the variety, the Hurwitz level's comes
from the same elimination, and the range of positive levels ends at
the dual dimension, read off the second fundamental form at sampled
smooth points.
"""

from grassgeo.associated import chow_hurwitz_ideal, hypersurface_range, polar_degree
from grassgeo.fields import GF
from grassgeo.grassmann import evaluate_pluecker, pluecker_embed
from grassgeo.linalg import Matrix
from grassgeo.rng import Stream
from grassgeo.varieties import quadric_surface, twisted_cubic

F = GF(32003)

print("== Chow form of the twisted cubic ==")
curve = twisted_cubic(F)
ideal = chow_hurwitz_ideal(curve, 1)
chow = ideal.gens[0]
print("degree:", chow.total_degree())
print("form  :", chow.format())

print("\nA secant line evaluates the form to zero:")
p1 = curve.parametrize([F.of(2)])
p2 = curve.parametrize([F.of(5)])
secant = pluecker_embed(F, Matrix(F, [p1, p2]))
print("  value on the secant through t=2, t=5:", evaluate_pluecker(chow, secant))

stream = Stream(1)
m = Matrix(F, [[F.random(stream._r) for _ in range(4)] for _ in range(2)])
print("  value on a random line:", evaluate_pluecker(chow, pluecker_embed(F, m)))

print("\n== Polar degrees ==")
for v, name in ((curve, "twisted cubic"), (quadric_surface(F), "quadric surface")):
    lo, hi = hypersurface_range(v)
    degs = [polar_degree(v, ell) for ell in range(v.n)]
    print("%-16s hypersurface levels [%d, %d], degrees %r" % (name, lo, hi, degs))
