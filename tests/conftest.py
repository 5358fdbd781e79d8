import numpy as np
import pytest

from axiblow import meshmap as mm


def identity_mesh_r(n):
    """Uniform map of [0,1] onto [0,1]."""
    return mm.build_map(mm.R_KNOTS, mm.DensityCoeffs(0.0, 1.0, 0.0, 0.0), 1.0, n)


def identity_mesh_z(m):
    """Uniform map of [0,1] onto [0,1/2] (constant density 1/2)."""
    return mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 0.5, 0.0, 0.0), 0.5, m)


def gentle_mesh_r(n):
    """Mildly graded non-identity radial map for metric-term coverage.

    Uses a soft step exponent (b = 12) so the map's transition regions are
    resolved already on the coarse halves of refinement pairs.
    """
    return mm.build_map(mm.R_KNOTS, mm.DensityCoeffs(0.5, 0.7, 0.6, 0.8, b=12), 1.0, n)


def gentle_mesh_z(m):
    return mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 0.35, 0.3, 0.4, b=12), 0.5, m)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def cubic_weights_oracle(q, n, parity_left, parity_right):
    """The per-field ip4 stencil of the former meshmap._cubic_weights, kept
    as an oracle: a stencil shared between fields must give the same bits."""
    t = np.asarray(q, dtype=float) / (1.0 / n)
    base = np.clip(np.floor(t).astype(int), 0, n - 1) - 1
    if parity_left is None:
        base = np.maximum(base, 0)
    if parity_right is None:
        base = np.minimum(base, n - 3)
    u = t - base
    w = np.empty((len(t), 4))
    w[:, 0] = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
    w[:, 1] = u * (u - 2.0) * (u - 3.0) / 2.0
    w[:, 2] = -u * (u - 1.0) * (u - 3.0) / 2.0
    w[:, 3] = u * (u - 1.0) * (u - 2.0) / 6.0
    idx = base[:, None] + np.arange(4)[None, :]
    if parity_left is not None:
        neg = idx < 0
        idx = np.where(neg, -idx, idx)
        if parity_left == "odd":
            w = np.where(neg, -w, w)
    if parity_right is not None:
        over = idx > n
        idx = np.where(over, 2 * n - idx, idx)
        if parity_right == "odd":
            w = np.where(over, -w, w)
    return idx, w


def ip4_oracle(values, rho, eta, parity_r=None, parity_z=None):
    """evaluate_ip4 with the stencils of one field computed for that field."""
    n, m = values.shape[0] - 1, values.shape[1] - 1
    idx_r, w_r = cubic_weights_oracle(rho, n, parity_r, None)
    idx_z, w_z = cubic_weights_oracle(eta, m, parity_z, parity_z)
    tmp = np.einsum("qk,qkj->qj", w_r, values[idx_r, :])
    return np.einsum("pk,qpk->qp", w_z, tmp[:, idx_z])
