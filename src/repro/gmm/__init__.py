"""From-scratch Gaussian Mixture Model substrate.

The paper's cache policy engine is a two-dimensional full-covariance GMM
(Sec. 2.3, Eq. 1-3) trained with Expectation-Maximization (Sec. 3.3).
This subpackage implements that model with numpy only:

* :mod:`repro.gmm.linalg` -- small dense linear-algebra kernels
  (Cholesky factors, log-determinants, log-sum-exp) shared by the model
  and the trainer.
* :mod:`repro.gmm.kmeans` -- k-means++ seeding and Lloyd iterations used
  to initialise EM.
* :mod:`repro.gmm.model` -- :class:`GaussianMixture`, the inference-side
  model holding (weights, means, covariances) and computing the paper's
  score ``G(pi, mu, Sigma)``.
* :mod:`repro.gmm.em` -- :class:`EMTrainer` implementing the E/M steps
  and the MLE-change convergence test of Sec. 3.3.
* :mod:`repro.gmm.quantized` -- :class:`QuantizedGmm`, a fixed-point
  re-implementation of the score pipeline mirroring the FPGA engine of
  Sec. 4.1.
* :mod:`repro.gmm.serialization` -- parameter save/load (the "weight
  buffer" loaded once from HBM before the kernel starts).
"""

from repro.gmm.em import EMTrainer, fit_gmm
from repro.gmm.kmeans import kmeans, kmeans_plus_plus_init
from repro.gmm.model import GaussianMixture
from repro.gmm.quantized import FixedPointFormat, QuantizedGmm
from repro.gmm.serialization import (
    gmm_from_dict,
    gmm_to_dict,
    load_gmm,
    save_gmm,
)

__all__ = [
    "EMTrainer",
    "FixedPointFormat",
    "GaussianMixture",
    "QuantizedGmm",
    "fit_gmm",
    "gmm_from_dict",
    "gmm_to_dict",
    "kmeans",
    "kmeans_plus_plus_init",
    "load_gmm",
    "save_gmm",
]
