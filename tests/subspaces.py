"""Orthonormal bases for the subspace tests (thin QR)."""

import numpy as np


def orthonormalize(basis: np.ndarray) -> np.ndarray:
    """An orthonormal basis of ``basis``'s columns, with the signs fixed
    so that ``R`` has a non-negative diagonal."""
    q, r = np.linalg.qr(np.asarray(basis, dtype=float))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
