"""Independent oracles for the Pareto traffic model, in closed form:
`pareto_cdf` checks the sampler `traffic.pareto_sample`, and
`log_likelihood` checks the fit `traffic.mle_fit`."""

import math

import numpy as np


def pareto_cdf(tau, p):
    """P(duration <= tau) = 1 - (scale / tau)^shape for tau >= scale, else 0."""
    tau = np.asarray(tau, dtype=float)
    out = np.where(tau >= p.scale_min, 1.0 - (p.scale_min / np.maximum(tau, p.scale_min)) ** p.shape, 0.0)
    return float(out) if out.ndim == 0 else out


def log_likelihood(samples, p):
    """Pareto log-likelihood of a sample set; -inf if any sample < scale_min."""
    x = np.asarray(samples, dtype=float)
    if np.any(x < p.scale_min):
        return -math.inf
    return (
        x.size * math.log(p.shape)
        + x.size * p.shape * math.log(p.scale_min)
        - (p.shape + 1.0) * float(np.sum(np.log(x)))
    )
