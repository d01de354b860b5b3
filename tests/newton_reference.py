"""The discrete minimizer's row-major, unpreconditioned Newton-CG kernel.

``discrete._minimize`` holds its logits class-major, reads the features
feature-major (through a C-contiguous d x n copy of x^T) and preconditions
conjugate gradients by Böhning's bound; the tests keep this kernel, which
schedule 4 first shipped and which reads x as given, sample-major, as its
reference.  It reads the objective's constants from ``discrete``, so a
monkeypatched ``RIDGE`` moves both.
"""

import itertools

import numpy as np

from spurious_lens import discrete
from spurious_lens.errors import NonconvergenceError


def row_major_minimize(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The k x d minimizer of the mean cross-entropy of x W^T plus
    RIDGE/2 ||W||_F^2: truncated Newton from W = 0 with n x k logits and
    plain conjugate gradients."""
    n = x.shape[0]
    rows, one_hot = np.arange(n), np.eye(k)[labels]

    def objective(w):  # the objective at w, and the softmax of w's logits
        logits = x @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        z = exp.sum(axis=1)
        loss = (np.mean(np.log(z) - logits[rows, labels])
                + discrete.RIDGE / 2 * np.sum(w * w))
        return float(loss), exp / z[:, None]

    w = np.zeros((k, x.shape[1]))
    loss, p = objective(w)
    for step in itertools.count(1):
        grad = (p - one_hot).T @ x / n + discrete.RIDGE * w
        # conjugate gradients from d = 0 to ||r|| <= min(0.5, sqrt ||g||) ||g||
        d, r = np.zeros_like(w), -grad
        conj, rr = r.copy(), float(np.sum(r * r))
        target = min(0.25, rr ** 0.5) * rr
        for _ in range(w.size):
            if rr <= target:
                break
            s = p * (x @ conj.T)
            h_conj = (s - p * s.sum(axis=1, keepdims=True)).T @ x / n + discrete.RIDGE * conj
            alpha = rr / float(np.sum(conj * h_conj))
            d += alpha * conj
            r -= alpha * h_conj
            rr, rr_before = float(np.sum(r * r)), rr
            conj = r + rr / rr_before * conj
        decrease = -float(np.sum(grad * d))
        if decrease <= discrete._DECREMENT:
            return w + d
        for t in 0.5 ** np.arange(discrete._MAX_HALVINGS + 1):
            cand_loss, cand_p = objective(w + t * d)
            if cand_loss <= loss - 1e-4 * t * decrease:  # Armijo
                break
        else:
            raise NonconvergenceError(
                f"the objective would not decrease after {discrete._MAX_HALVINGS} step "
                f"halvings (Newton step {step})")
        w, loss, p = w + t * d, cand_loss, cand_p
