#!/usr/bin/env python3
"""Time-step refinement of the discrete energy-dissipation residual.

The residual r_n = (E(t_{n+1}) - E(t_n))/dt + D(t_{n+1/2}) should vanish at
second order in dt for resolved initial data.
"""

import numpy as np

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain


def main():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 32), M_v=24)
    s = sim.Simulator(dn.area(1.0), 1.0, dom)
    modes = {kt: s.eigenmode_data(kt, 1e-3 * w).modes[kt]
             for kt, w in [((1, 0), 1.0), ((1, 1), 0.7), ((2, 0), 0.4)]}
    state = sim.FlattenedState(dom, modes, 0.0)

    print(f"{'dt':>8s} {'max|r|/max D':>14s} {'order':>7s}")
    prev = None
    for dt in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4):
        settings = sim.SimulationSettings(dt=dt, horizon=0.4, output_interval=10**9)
        trace, _ = s.run(state, settings)
        r = trace.ed_relative_residual()
        order = "" if prev is None else f"{np.log(prev / r) / np.log(2.0):7.3f}"
        print(f"{dt:8.0e} {r:14.4e} {order:>7s}")
        prev = r


if __name__ == "__main__":
    main()
