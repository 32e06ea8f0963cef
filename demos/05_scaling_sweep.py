"""
How far the sweep scales
========================

The caterpillar solver touches each vertex once.  A spine step and a leaf
step each cost time linear in the encoding size.  On these leaf-heavy
caterpillars the encoding stays at a handful of e-nodes, so the sweep grows
about linearly: at n = 100,000 it took about 1.5 s on a 2-core Xeon VM, with
another 1.8 s to generate the instance.  This script times the sweep on a
doubling ladder of sizes and reports the largest encoding seen at each.
"""

import resource
import time

from lcr import check_size_bound, encoding_history
from lcr.generators import gen_caterpillar

print("      n   gen (s)  sweep (s)  peak |V(E)|  answer")
for spine in (6_250, 12_500, 25_000, 50_000):
    t0 = time.perf_counter()
    # leaves_per_spine=1 pins one leaf to every spine vertex, so n = 2 * spine.
    inst = gen_caterpillar(
        spine, colors=6, list_range=(2, 3), seed=20259, leaves_per_spine=1
    )
    t1 = time.perf_counter()
    records = []
    for sweep, rec in encoding_history(inst):
        records.append(rec)
    t2 = time.perf_counter()
    answer = sweep.tar is not None
    assert check_size_bound(records) is None
    peak = max(rec.pre_extraction for rec in records)
    print(
        f"{inst.graph.n:7d}  {t1 - t0:7.2f}  {t2 - t1:9.2f}  "
        f"{peak:11d}  {'yes' if answer else 'no':>6s}"
    )

rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak process memory: {rss_mib:.0f} MiB")
