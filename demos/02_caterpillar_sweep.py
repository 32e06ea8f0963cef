"""
The caterpillar sweep
=====================

On caterpillar trees the solver never enumerates colorings.  It sweeps the
vertices in a fixed order and drags along a tiny "encoding" graph whose
nodes stand for bundles of partial colorings.  The encoding is one working
state that every step changes in place; ``snapshot()`` freezes it into an
``EncodingGraph`` when you want to keep or print it.  This script walks one
sweep step by step and shows how small the encoding stays.
"""

from lcr import (
    Graph,
    build,
    check_size_bound,
    component_of,
    encoding_history,
    make_instance,
    oracle_decide,
    recognize_caterpillar,
)
from lcr.oracle import state_space_size

# A 4-vertex spine path 0-1-2-3 with one extra leaf hanging off vertex 1.
g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
lists = [{1, 2}, {1, 2, 3}, {2, 3}, {1, 3}, {1, 2}]
inst = make_instance(g, lists, f0=(1, 3, 2, 1, 2), fr=(2, 3, 2, 3, 1))

st = recognize_caterpillar(g)
print("spine:      ", st.spine)
print("sweep order:", st.ordering)
print("state space:", state_space_size(inst.lists), "colorings")
print()

# One row per sweep step.  "cap" is the proven ceiling on the encoding size
# before the start-component extraction: 2 at the first step, then the
# previous size plus the degree of the vertex being absorbed.
print("step  vertex  kind    size  cap  kept")
records = []
for sweep, rec in encoding_history(inst, st):
    records.append(rec)
    print(
        f"{rec.step:4d}  {rec.vertex:6d}  {rec.kind:5s}  "
        f"{rec.pre_extraction:4d}  {rec.bound:3d}  {rec.final_size:4d}"
    )
print("size monitor:", "clean" if check_size_bound(records) is None else "violated")
print()

# The last encoding answers the question: the target coloring survived the
# sweep exactly when its node is still present.
answer = sweep.tar is not None
print("sweep answer: ", answer)
print("oracle agrees:", oracle_decide(inst) == answer)

# The encoding after each step is not an approximation.  It is the start
# component of the reconfiguration graph of the prefix instance, with runs
# of colorings that share a spine color squeezed into single nodes.
rg = build(g, inst.lists)
print("full reconfiguration graph:", rg.num_nodes, "nodes")
print("start component:           ", len(component_of(rg, inst.f0)), "nodes")
final = sweep.snapshot()
print("final encoding:            ", len(final.cols), "nodes", final.edges)
