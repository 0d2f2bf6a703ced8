"""Dense n x n forms that the block-wise and spectral code is tested against.

Each one materializes an n x n matrix, so they serve small fixtures only.
"""

import numpy as np

from sarnet.regularization import Scheme, Spectrum, q_weights
from sarnet.transforms import r_matrix, s_matrix


def projector_matrix(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Dense P^alpha = sum_j q_j psi_j psi_j'."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors * q) @ spectrum.vectors.T


def projector_diagonal(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Diagonal entries P^alpha_ii = sum_j q_j psi_ji^2 (smoother leverages)."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors ** 2) @ q


def d_matrix(network, lam: float, rho: float) -> np.ndarray:
    """Dense D = R(rho) W S(lambda)^{-1} R(rho)^{-1} from explicit inverses."""
    R = r_matrix(rho, network.M)
    return R @ network.W @ np.linalg.inv(s_matrix(lam, network.W)) @ np.linalg.inv(R)
