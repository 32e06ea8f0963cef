"""
From path rerouting to list coloring
====================================

Shortest-path rerouting asks whether one shortest s-t path can slide to
another, moving one vertex per step and staying shortest throughout.  The
compiler turns such a question into a list coloring reconfiguration
instance, and the output is structurally tame on purpose: bipartite, a
partial 2-tree, pathwidth at most 2, and one clique-join step away from a
threshold-style instance.  Witnesses translate in both directions.
"""

from lcr import (
    Graph,
    brute_solve,
    build_spr_instance,
    check_path_decomposition,
    compile_spr,
    compute_layers,
    emit_path_decomposition,
    enumerate_s_paths,
    is_bipartite,
    is_partial_two_tree,
    is_valid_sequence,
    reachable,
    recoloring_to_spath_sequence,
    spath_sequence_to_recoloring,
    to_threshold,
)

# Two vertex-disjoint shortest 0-1 tracks (0-2-3-1 and 0-4-5-1) plus two
# rungs that let a path change track one vertex at a time.
g = Graph(6, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (2, 5), (4, 3)])
spr = build_spr_instance(g, s=0, t=1, p0=(0, 2, 3, 1), pr=(0, 4, 5, 1))

d, layers, pruned, _ = compute_layers(g, 0, 1)
print("distance:", d)
print("layers:  ", layers)
print("s-paths: ", enumerate_s_paths(spr))

seq = brute_solve(spr)
print("rerouting sequence:")
for p in seq:
    print("   ", p)
print()

# Compile to a list coloring question.
red = compile_spr(spr)
lcr = red.lcr
print(f"compiled instance: {lcr.graph.n} vertices, {lcr.graph.m} edges")
print("layer vertices:   ", tuple(range(spr.d - 1)))  # u_i has id i-1
print("forbidden vertices:", red.forbidden)
print("lists:", [sorted(lst) for lst in lcr.lists])
print("f0:", lcr.f0)
print("fr:", lcr.fr)
print()

# Structural certificates of the compiled graph.
print("bipartite:        ", is_bipartite(lcr.graph) is not None)
print("partial 2-tree:   ", is_partial_two_tree(lcr.graph))
dec = emit_path_decomposition(red)
valid, width = check_path_decomposition(lcr.graph, dec)
print("path decomposition:", "valid" if valid else "invalid", "width", width)

thr, witness = to_threshold(red)
print("threshold variant: ", thr.graph.m - lcr.graph.m, "edges added,",
      "weights", witness.weights, "bound", witness.bound,
      "verified" if witness.verify(thr.graph) else "rejected")
print()

# Translate the rerouting sequence into recoloring steps and back.
steps = spath_sequence_to_recoloring(red, seq)
print("recoloring steps:", steps)
print("valid recoloring witness:", is_valid_sequence(lcr, steps))
print("round-trips back to the rerouting sequence:",
      recoloring_to_spath_sequence(red, steps) == seq)

# And the other way: a witness found by the coloring oracle projects onto a
# valid rerouting sequence.
oracle_steps, _ = reachable(lcr.graph, lcr.lists, lcr.f0, lcr.fr)
print("oracle witness projects to:")
for p in recoloring_to_spath_sequence(red, oracle_steps):
    print("   ", p)
