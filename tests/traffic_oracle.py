"""Independent oracles for the Pareto traffic model, in closed form:
`pareto_cdf` checks the gate sampler `channel.draw_gates`, and
`log_likelihood` checks the fit `traffic.mle_fit`.  `pareto_sample` draws
i.i.d. Pareto durations for fits and traces."""

import math

import numpy as np


def pareto_cdf(tau, p):
    """P(duration <= tau) = 1 - (scale / tau)^shape for tau >= scale, else 0."""
    tau = np.asarray(tau, dtype=float)
    out = np.where(tau >= p.scale_min, 1.0 - (p.scale_min / np.maximum(tau, p.scale_min)) ** p.shape, 0.0)
    return float(out) if out.ndim == 0 else out


def pareto_sample(rng, p, size):
    """Inverse-CDF sampler: scale * U^(-1/shape) with U uniform on (0, 1]."""
    return p.scale_min * (1.0 - rng.random(size)) ** (-1.0 / p.shape)


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
