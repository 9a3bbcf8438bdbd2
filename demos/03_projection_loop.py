"""The inner projection loop and the rank-one state update.

delta_step moves a state toward a target only along the gradient
direction, leaving the orthogonal complement untouched. The projection
loop's rank-one step is this update toward the target s - t*D on the
gradient line, which it computes directly as the line-search step
s - beta*t*D, sweeping all nodes until the energy is small.
"""

import numpy as np

from topocsp import (DeltaParams, LossWeights, ProjectionConfig, delta_step,
                     generate_instance, project_states, total_energy)

# --- the update in isolation ------------------------------------------
x = np.zeros(64)
g = np.zeros(64)
g[0] = 1.0                 # gradient along the first coordinate
v = np.full(64, 0.5)       # target is far away in every coordinate

for beta in (0.0, 0.5, 1.0, 2.0):
    out = delta_step(x, g, v, DeltaParams(beta=beta, clip=None))
    print(f"beta={beta:.1f}: moved coords = {np.count_nonzero(out - x)}, "
          f"x[0] -> {out[0]:+.2f}")
# only x[0] ever moves; beta interpolates identity, projection, reflection

# --- the loop on a generated instance ---------------------------------
inst = generate_instance(6, seed=3)
weights = LossWeights(1.0, 10.0, 2.0)
cfg = ProjectionConfig(use_delta=True, use_curvature=True, grad_clip=1.0)

e0 = total_energy(inst.initial_states, inst.constraints, weights=weights)
final, trace = project_states(inst.initial_states, inst.constraints,
                              weights, beta=0.8, cfg=cfg)
# the call stops early once the energy falls below cfg.tau
print(f"\nprojection call: {trace.iterations_run} sweeps, "
      f"below tau={trace.l_total[-1] < cfg.tau}")
print(f"energy {e0:.4f} -> {trace.l_total[-1]:.4f}")
print("per-sweep totals:", np.round(trace.l_total, 4))

# gradient norms shrink as the layout untangles
print("grad_mean per sweep:", np.round(trace.grad_mean, 3))

# states remain inside the unit box by construction
print("state range:", final.min().round(3), "to", final.max().round(3))
