import numpy as np
import pytest

from gorlab import cyclic_module, hyperbolic_form, identity_form, make_ring
from gorlab.resolution import residue_field_module


def _kmat(G, ops, p):
    """Dense reference for `resolution.kmat_triplets`: the (j t) x (a s)
    matrix whose tile at target copy y and source copy x is sum_c G[x, y, c]
    ops[c], for an entry array G of shape (a, j, C) and ops of shape
    (C, t, s).  ops = N.all_ops gives the k-matrix of del tensor N, and
    ring.basis_reg that of del itself."""
    a, j, _ = G.shape
    _, t, s = ops.shape
    return (np.einsum("ajc,cxy->jxay", G, ops) % p).reshape(j * t, a * s)


@pytest.fixture(scope="session")
def R3():
    """The e = 3 identity-form ring over GF(101)."""
    return make_ring(101, 3, identity_form(3))


@pytest.fixture(scope="session")
def R2():
    """The e = 2 hyperbolic ring, isomorphic to k[x,y]/(x^2, y^2)."""
    return make_ring(101, 2, hyperbolic_form(2))


@pytest.fixture(scope="session")
def k3(R3):
    """The residue field of R3 as a module."""
    return residue_field_module(R3)


@pytest.fixture(scope="session")
def Rx3(R3):
    """R3/(x_1), the cyclic module with Betti numbers 1,1,2,5,13,..."""
    return cyclic_module(R3, [R3.x(1)])[0]


@pytest.fixture(scope="session")
def Rx2(R2):
    """R2/(x), the e = 2 counterexample module."""
    return cyclic_module(R2, [R2.x(1)])[0]


@pytest.fixture(scope="session")
def Rmodsoc3(R3):
    """R3/m^2, whose first syzygy is the socle, a split copy of k."""
    return cyclic_module(R3, [R3.w()])[0]
