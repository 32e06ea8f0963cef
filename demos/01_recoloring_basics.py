"""
Recoloring one vertex at a time
===============================

A first tour of the exhaustive solver: build the graph whose nodes are all
proper list colorings of a small graph, look at its shape, and pull out a
shortest recoloring sequence between two given colorings.
"""

from lcr import Graph, build, make_instance, oracle_decide, reachable

# A path on three vertices.  The middle vertex sees both ends, so its color
# has to dodge two neighbors at once.
g = Graph(3, [(0, 1), (1, 2)])
lists = [{1, 2}, {1, 2, 3}, {2, 3}]

rg = build(g, lists)
print("proper colorings:", rg.num_nodes)
print("recoloring moves:", rg.num_edges)
print("connected components:", len(rg.components()))
for node in rg.nodes:
    print("   ", node)

# Ask for a shortest path between two of those colorings.
inst = make_instance(g, lists, f0=(1, 3, 2), fr=(2, 1, 3))
print()
print("reachable:", oracle_decide(inst))

steps, _ = reachable(g, lists, inst.f0, inst.fr)
f = list(inst.f0)
print("start            ", tuple(f))
for vertex, color in steps:
    f[vertex] = color
    print(f"vertex {vertex} -> color {color}", tuple(f))

# Not every pair is connected.  With two colors on a single edge the two
# proper colorings are frozen: recoloring either endpoint collides.
frozen = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 1))
print()
print("frozen edge reachable:", oracle_decide(frozen))
