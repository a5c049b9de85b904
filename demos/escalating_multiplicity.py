"""The escalating-multiplicity family: every diagnostic fails together.

Level n places a point at depth 4^-n carrying multiplicity n.  The plain
zero mass stays summable, but recentring at the level-n point shows n
units of transformed mass, the recentred product acquires an order-n zero,
division by the product inflates Bergman norms, and multiplication by it
loses its lower bound.  The battery below sweeps the truncation level and
prints the indicators side by side.

Run:  python demos/escalating_multiplicity.py
"""

from blaschke_lab import (
    BlaschkeProduct,
    QuadratureGrid,
    compose_min_on_compact,
    gen_escalating_multiplicity,
    mb_lower_probe,
    universal_divisor_ratio,
    uniform_blaschke_sup,
    carleson_norm,
)

GRID = QuadratureGrid.build(rings=200, min_gap=1e-7, max_angular=4096)
P = 0.25

print(f"{'level':>5} {'carleson':>9} {'mass@deepest':>13} "
      f"{'recentred sup':>14} {'divisor ratio':>14} {'mult probe':>11}")
for n in range(1, 9):
    seq = gen_escalating_multiplicity(n, 0.25)
    b = BlaschkeProduct(seq)
    zn = 1.0 - 0.25**n
    ubs = uniform_blaschke_sup(seq, [zn])
    comp = compose_min_on_compact(b, zn)
    udr = universal_divisor_ratio(b, [zn], P, 0.0, GRID)
    mb = mb_lower_probe(b, [zn], P, GRID)
    cn = carleson_norm(seq).norm
    print(f"{n:>5} {cn:>9.3f} {ubs:>13.3f} {comp:>14.3e} {udr:>14.3f} {mb:>11.4f}")

print()
print("Reading the table:")
print("  * carleson norm and the recentred mass grow linearly with level;")
print("  * sup of the recentred product on |z| <= 1/2 decays like 2^-n;")
print("  * the divisor ratio blows up while the multiplication probe")
print("    collapses: the two operator-theoretic faces of the same failure.")
