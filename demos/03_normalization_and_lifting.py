"""
Trimming instances without changing the answer
==============================================

Vertices with a one-color list are stuck, and vertices with more colors than
neighbors can always get out of the way.  Both can be deleted up front.  The
trim keeps a trace, so a recoloring sequence found on the smaller instance
can be lifted back to a valid sequence on the original.
"""

from lcr import (
    Graph,
    RichListRemoval,
    SingletonRemoval,
    is_valid_sequence,
    lift_sequence,
    make_instance,
    normalize,
    oracle_decide,
    reachable,
)

# A path on five vertices.  Vertex 0 is forced to color 1, which knocks
# color 1 out of vertex 1's list; vertex 4 has four colors but only one
# neighbor, so it is richer than it needs to be.
g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
lists = [{1}, {1, 2, 3}, {2, 3, 4}, {2, 3}, {1, 2, 3, 4}]
inst = make_instance(g, lists, f0=(1, 2, 3, 2, 3), fr=(1, 3, 4, 3, 4))

trimmed, trace = normalize(inst)

print(f"original: {inst.graph.n} vertices, trimmed: {trimmed.graph.n}")
for removal in trace.removals:
    if isinstance(removal, SingletonRemoval):
        print(
            f"  deleted vertex {removal.vertex}: forced to color {removal.color},"
            f" neighbors trimmed: {removal.affected}"
        )
    else:
        assert isinstance(removal, RichListRemoval)
        print(f"  deleted vertex {removal.vertex}: list larger than degree + 1")
print("surviving vertices (trimmed id i is kept[i]):", trace.kept)
print("trimmed lists:", [sorted(lst) for lst in trimmed.lists])
print()

print("answer before trim:", oracle_decide(inst))
print("answer after trim: ", oracle_decide(trimmed))

# Solve the trimmed instance, then lift the witness back.
steps, _ = reachable(trimmed.graph, trimmed.lists, trimmed.f0, trimmed.fr)
lifted = lift_sequence(trace, inst, steps)
print()
print(f"trimmed witness: {len(steps)} steps, lifted witness: {len(lifted)} steps")
print("lifted steps:", lifted)
print("lifted witness valid on the original:", is_valid_sequence(inst, lifted))
