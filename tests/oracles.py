"""Slow reference implementations that fast paths in the package are checked against.

``local_tables_per_node`` is the local x/y table engine as it was before the
symmetry-wedge rewrite: one set of matrix products per radial node over every
direction of the prior, reduced in node order.  It uses no symmetry of the
prior or of the count model.
"""

from __future__ import annotations

import numpy as np

from blochest.evaluator import LocalTables
from blochest.schemes import SchemeKind, binom_log_pmf_matrix


def local_tables_per_node(spec, prior) -> LocalTables:
    """Outcome tables by a full radial x angular sum, node by node."""
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    n = spec.n_per_axis
    K = n + 1
    cx = prior.directions[:, 0]
    sy = prior.directions[:, 1]
    aw = prior.angular_w

    def node_contribution(i: int):
        r = prior.radial_r[i]
        w = prior.radial_w[i]
        bx = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + r * cx)))
        by = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + r * sy)))
        wby = by * (w * aw)
        m = bx @ wby.T
        mx = (bx * (r * cx)) @ wby.T
        my = bx @ (wby * (r * sy)).T
        return m, mx, my

    prob = np.zeros((K, K))
    v_t = np.zeros((K, K))
    v_x = np.zeros((K, K))
    v_y = np.zeros((K, K))
    for i in range(prior.radial_r.size):
        m, mx, my = node_contribution(i)
        prob += m
        v_t += prior.radial_t[i] * m
        v_x += mx
        v_y += my
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)
