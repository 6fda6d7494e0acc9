"""Autodiff reference for the ResGen autoregressive generation loop.

``GenDTGenerator.generate_batch`` as it was built from ``Tensor`` ops: each
step feeds ``ResGen.sample`` (the training path's autodiff forward) with the
environment context and the last ``m`` generated residuals.  The array loop
in ``ResGen.rollout`` must match it bit for bit, outputs and RNG draws alike.
"""

from typing import Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.core.features import ModelBatch
from repro.nn.tensor import Tensor


def reference_generate_batch(
    generator,
    batch: ModelBatch,
    ar_state: Optional[np.ndarray] = None,
    stochastic: Optional[bool] = None,
    collect_params: bool = False,
    first_stage_only: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, np.ndarray]]]:
    """Same signature and result as ``GenDTGenerator.generate_batch``."""
    with nn.no_grad():
        h_avg = generator.h_avg(batch, stochastic=stochastic)
        base = generator.agg_net(h_avg, stochastic=stochastic)
        base_np = base.numpy()
        b, length, n_ch = base_np.shape
        m = generator.resgen.ar_window if generator.resgen is not None else 1
        if ar_state is None:
            ar_state = np.zeros((b, m, n_ch))
        if generator.resgen is None or first_stage_only:
            new_state = np.concatenate([ar_state, base_np], axis=1)[:, -m:]
            return base_np, new_state, None

        output = np.empty_like(base_np)
        params_mu = np.empty_like(base_np) if collect_params else None
        params_sigma = np.empty_like(base_np) if collect_params else None
        state = ar_state.copy()
        for t in range(length):
            env_t = Tensor(batch.env[:, t, :])
            recent_t = Tensor(state.reshape(b, m * n_ch))
            residual, mu, log_sigma = generator.resgen.sample(env_t, recent_t)
            residual_np = np.clip(residual.numpy(), -5.0, 5.0)
            output[:, t] = base_np[:, t] + residual_np
            if collect_params:
                params_mu[:, t] = mu.numpy()
                params_sigma[:, t] = np.exp(log_sigma.numpy())
            state = np.concatenate([state[:, 1:], residual_np[:, None, :]], axis=1)
        params = {"mu": params_mu, "sigma": params_sigma} if collect_params else None
        return output, state, params
