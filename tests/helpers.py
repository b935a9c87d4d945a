"""Helpers that read a policy's internal state, shared by the test modules."""

import numpy as np


def tbl_posterior(policy):
    """(P, J, mu, Sigma) of a ThompsonQuadraticPolicy.

    P and J are rebuilt from the nine floats in ``policy._pj``; the
    posterior is Sigma = inv(P), mu = Sigma @ J. ``_factor()`` runs first,
    so a P that is not positive definite raises as a proposal would.
    """
    policy._factor()
    P = np.array(policy._pj)[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    J = np.array(policy._pj[6:])
    sigma = np.linalg.inv(P)
    return P, J, sigma @ J, sigma
