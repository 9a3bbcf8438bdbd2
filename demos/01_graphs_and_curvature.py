"""Semantic graphs and edge curvature.

Builds a small graph from random node states, prints the affinity
weights, and shows how edge curvature translates into per-node step
scales for the solver.
"""

import numpy as np

from topocsp import (SemanticGraph, all_edge_curvatures, build_graph,
                     curvature_step_scales, edge_weight)

rng = np.random.default_rng(0)

# a node state is one 64-d vector; the first 16 components describe the
# physical boundary, the middle 32 the structural form, the last 16 the role.
# Edge weights come from cosine affinity, mapped to (0, 1]
a = rng.uniform(-1, 1, size=64)
print("weight(a, a)      =", edge_weight(a, a))
print("weight(a, -a)     =", edge_weight(a, -a))

# complete graph on 6 random states
states = rng.uniform(-1, 1, size=(6, 64))
g = build_graph(states)
print(f"\ncomplete graph: {g.n_nodes} nodes, {g.n_edges} edges")

kappa = all_edge_curvatures(g)
for (u, v), k in list(zip(g.edges, kappa))[:5]:
    print(f"  edge ({u},{v})  w={g.weights[u, v]:.3f}  curvature={k:+.3f}")

# negative curvature marks bottlenecks, positive marks dense well-connected
# regions; the solver damps steps where curvature is high and lengthens
# them where it is negative; curvature_step_scales returns the JSON object
# that `topocsp solve --dump-curvature` prints
report = curvature_step_scales(g)
print("\nper-node step scales (clamped to [0.25, 2]):")
for node in report["nodes"]:
    print(f"  node {node['id']}: mean curvature {node['mean_curvature']:+.3f}"
          f" -> scale {node['scale']:.3f}")

# a sparse topology changes the picture: chain graphs curve negative
# a graph is its weight matrix, positive exactly on the edges
w = np.zeros((6, 6))
for i in range(5):
    w[i, i + 1] = w[i + 1, i] = edge_weight(states[i], states[i + 1])
chain = SemanticGraph(w)
print("\nchain curvatures:", np.round(all_edge_curvatures(chain), 3))
