"""A stepped state keeps its modes in the class slots of the mode set that stepped it
and builds its stack X only when X, `modes` or `stack()` is read.

Whether or not that read happens, the next step and the E_eq/D_eq and E_imp/D_imp
pairs see the same bits, and neither pair makes the read; a write after the read is
the state from then on; and slots never cross from one simulator to another.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain

N, M_V = 16, 8
SCHEMES = ["crank-nicolson", "backward-euler"]
# a k = 0 mean mode, a Nyquist member (k_1 = N/2) and generic modes; at n = 2 the
# Nyquist and the generic classes have several members (at n = 1 each class has one)
KEYS = {1: [(0,), (N // 2,), (3,), (2,)],
        2: [(0, 0), (N // 2, 1), (N // 2, -1), (1, N // 2), (2, 1), (1, -2), (3, 0)]}


def simulator(n, density=None):
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    return sim.Simulator(density or dn.combo(-1.0, 0.042), -1.0, dom)


def random_state(s, seed=0):
    """Complex data in every entry, the mean mode's eta and imaginary parts included."""
    rng = np.random.default_rng(seed)
    dim = s.layout.dim
    return sim.FlattenedState(s.dom, {k: rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                                      for k in KEYS[s.dom.n]})


def fresh(state):
    """A state of the same modes built from a dict, holding no slots."""
    return sim.FlattenedState(state.dom, {k: x.copy() for k, x in state.modes.items()}, state.t)


def same_bits(a, b):
    assert a.keys == b.keys and a.t == b.t
    assert a.X.tobytes() == b.X.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_reading_x_changes_no_bit(n, scheme):
    s = simulator(n)
    state = random_state(s)
    assert (len(s._mode_set(state.keys).classes) < len(state.keys)) == (n == 2)
    read, unread = s.step(state, 1e-3, scheme), s.step(state, 1e-3, scheme)
    read.X
    assert s._equilibrium_pair(read) == s._equilibrium_pair(unread)
    assert s._improved_pair(read) == s._improved_pair(unread)
    for _ in range(3):
        read, unread = s.step(read, 1e-3, scheme), s.step(unread, 1e-3, scheme)
        assert s._equilibrium_pair(read) == s._equilibrium_pair(unread)
        assert s._improved_pair(read) == s._improved_pair(unread)
        read.stack()
    same_bits(read, unread)
    # the stepped state is the same whether it went through slots or a dict
    same_bits(s.step(fresh(read), 1e-3, scheme), s.step(unread, 1e-3, scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_mean_mode_keeps_eta_and_drops_its_imaginary_part(n, scheme):
    s = simulator(n)
    state = random_state(s)
    eta = s.layout.eta
    x0 = state.modes[(0,) * n].copy()
    stepped = s.step(s.step(state, 1e-3, scheme), 1e-3, scheme)
    x = stepped.modes[(0,) * n]
    assert x[eta] == x0[eta].real
    assert np.all(x.imag == 0.0)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_writes_after_a_read_are_honoured(n, scheme):
    s = simulator(n)
    state = s.step(random_state(s), 1e-3, scheme)
    nyquist = KEYS[n][1]
    state.modes[nyquist][s.layout.eta] += 0.25 - 0.5j
    state.X[-1] *= 2.0
    assert state.modes[nyquist][s.layout.eta] == state.X[1, s.layout.eta]
    ref = fresh(state)
    same_bits(s.step(state, 1e-3, scheme), s.step(ref, 1e-3, scheme))
    assert s._equilibrium_pair(state) == s._equilibrium_pair(ref)
    assert s._improved_pair(state) == s._improved_pair(ref)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_another_simulator_never_uses_the_slots(n, scheme):
    s = simulator(n)
    other = sim.Simulator(dn.area(2.0), 1.0, s.dom)
    a, b = s.step(random_state(s), 1e-3, scheme), s.step(random_state(s), 1e-3, scheme)
    stepped, pair = other.step(a, 1e-3, scheme), other._equilibrium_pair(b)
    c = s.step(random_state(s), 1e-3, scheme)
    improved = other._improved_pair(c)
    assert stepped.X.tobytes() != s.step(fresh(a), 1e-3, scheme).X.tobytes()
    same_bits(stepped, other.step(fresh(a), 1e-3, scheme))
    assert pair == other._equilibrium_pair(fresh(b))
    assert improved == other._improved_pair(fresh(c))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_empty_state_steps_and_pairs_to_zero(n, scheme):
    s = simulator(n)
    state = sim.FlattenedState(s.dom, {}, 0.0)
    for _ in range(2):
        state = s.step(state, 1e-3, scheme)
        assert s._equilibrium_pair(state) == (0.0, 0.0)
        assert s._improved_pair(state) == (0.0, 0.0)
    assert state.X.shape == (0, s.layout.dim) and state.modes == {}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_pairs_leave_an_unread_state_in_its_slots(n, scheme):
    s = simulator(n)
    state = s.step(random_state(s), 1e-3, scheme)
    slots = state._slots
    assert slots is not None
    s._equilibrium_pair(state)
    s._improved_pair(state)
    assert state._slots is slots
