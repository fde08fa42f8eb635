#!/usr/bin/env python3
"""Cross-validate spectral decay rates against time-stepped energy decay.

For each configuration the slowest surface mode is located by the
eigensolver, its eigenvector is used as initial data, and the fitted
log-linear decay rate of the equilibrium energy is compared with twice the
spectral gap.
"""

import time

import numpy as np

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain

BETA_STAR = (4 * np.pi**2 + 1) / (16 * np.pi**4)

CONFIGS = [
    ("area, g=1", dn.area(1.0), 1.0),
    ("willmore, g=0", dn.willmore(), 0.0),
    ("combo stable, g=-1", dn.combo(-1.0, 1.01 * BETA_STAR), -1.0),
]


def main():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 32), M_v=24)
    print(f"{'configuration':24s} {'mode':8s} {'lambda_min':>12s} {'fit/2':>12s} "
          f"{'rel err':>9s} {'R^2':>8s} {'time':>6s}")
    for name, density, g in CONFIGS:
        t0 = time.time()
        s = sim.Simulator(density, g, dom)
        modes, eigs = st.mode_sweep(density, g, dom.b, 2, dom.M_v)
        i = min(range(1, len(modes)), key=lambda j: eigs[j][0].real)
        lam, kt = float(eigs[i][0].real), modes[i]
        state = s.eigenmode_data(kt, 1e-4)
        T = min(5.0, 4.0 / lam)
        nst = int(round(T / 1e-3))
        settings = sim.SimulationSettings(dt=1e-3, horizon=T,
                                          output_interval=max(1, nst // 30),
                                          record_ed=False)
        trace, _ = s.run(state, settings)
        rate, r2, _ = sim.measure_decay_rate(trace)
        rel = abs(rate - 2 * lam) / (2 * lam)
        print(f"{name:24s} {str(kt):8s} {lam:12.6f} {rate / 2:12.6f} "
              f"{rel:9.2e} {r2:8.5f} {time.time() - t0:5.1f}s")
    lam_global, k_global = st.global_decay_rate(dn.area(1.0), 1.0, 1.0, 4, 24)
    print(f"\nglobal rate over |k|_inf <= 4 plus the mean-flow branch (area, g=1): "
          f"{lam_global:.6f} at k={k_global}")


if __name__ == "__main__":
    main()
