"""Linear-chain conditional random field for sequence labelling.

The CRF-L baseline (Adelfio & Samet) labels the *sequence of lines* of
a file jointly, exploiting the top-to-bottom organization the paper
highlights (metadata, then header, then data, then notes).  This module
provides the general-purpose model:

* log-linear emission potentials over dense, real-valued per-position
  feature vectors;
* learned start and transition potentials;
* exact maximum-likelihood training with L-BFGS (scipy) on the
  conditional log-likelihood, with L2 regularization;
* exact Viterbi decoding.

Forward-backward and the gradient are computed *batched over
sequences* (padded to the longest sequence with masking), so training
cost is a handful of numpy kernels per L-BFGS iteration rather than a
Python loop per line.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from repro.errors import InvalidParameterError, NotFittedError


def _pad_sequences(
    sequences: list[np.ndarray], labels: list[np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Pad variable-length sequences into ``(N, T, d)`` plus a mask."""
    n = len(sequences)
    t_max = max(len(s) for s in sequences)
    d = sequences[0].shape[1]
    X = np.zeros((n, t_max, d), dtype=np.float64)
    mask = np.zeros((n, t_max), dtype=bool)
    y = np.zeros((n, t_max), dtype=np.int64) if labels is not None else None
    for i, seq in enumerate(sequences):
        length = len(seq)
        X[i, :length] = seq
        mask[i, :length] = True
        if labels is not None:
            y[i, :length] = labels[i]
    return X, mask, y


class LinearChainCRF:
    """A first-order linear-chain CRF with dense emission features.

    Parameters
    ----------
    l2:
        L2 regularization weight on all parameters.
    max_iter:
        L-BFGS iteration budget.
    tol:
        L-BFGS convergence tolerance.
    """

    def __init__(self, l2: float = 1e-2, max_iter: int = 100,
                 tol: float = 1e-5):
        if l2 < 0:
            raise InvalidParameterError("l2 must be non-negative")
        if max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol

        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self._W: np.ndarray | None = None  # (K, d) emission weights
        self._b: np.ndarray | None = None  # (K,) emission bias
        self._start: np.ndarray | None = None  # (K,)
        self._trans: np.ndarray | None = None  # (K, K)

    # ------------------------------------------------------------------
    # Parameter (un)flattening
    # ------------------------------------------------------------------
    def _unpack(self, theta: np.ndarray, k: int, d: int):
        offset = 0
        W = theta[offset : offset + k * d].reshape(k, d)
        offset += k * d
        b = theta[offset : offset + k]
        offset += k
        start = theta[offset : offset + k]
        offset += k
        trans = theta[offset : offset + k * k].reshape(k, k)
        return W, b, start, trans

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        sequences: list[np.ndarray],
        labels: list[np.ndarray],
    ) -> "LinearChainCRF":
        """Fit on a list of ``(T_i, d)`` feature arrays and label arrays."""
        if not sequences:
            raise ValueError("cannot fit a CRF on zero sequences")
        if len(sequences) != len(labels):
            raise ValueError("sequences and labels differ in length")
        sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
        raw_labels = [np.asarray(l) for l in labels]
        for seq, lab in zip(sequences, raw_labels):
            if len(seq) != len(lab):
                raise ValueError("sequence/label length mismatch")
            if len(seq) == 0:
                raise ValueError("empty sequence")

        self.classes_ = np.unique(np.concatenate(raw_labels))
        class_index = {c: i for i, c in enumerate(self.classes_)}
        encoded = [
            np.array([class_index[c] for c in lab], dtype=np.int64)
            for lab in raw_labels
        ]
        self.n_features_ = sequences[0].shape[1]
        k, d = len(self.classes_), self.n_features_

        X, mask, y = _pad_sequences(sequences, encoded)
        lengths = mask.sum(axis=1)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            W, b, start, trans = self._unpack(theta, k, d)
            nll, grads = self._nll_and_grads(X, mask, y, lengths, W, b,
                                             start, trans)
            gW, gb, gstart, gtrans = grads
            nll += 0.5 * self.l2 * float(theta @ theta)
            grad = np.concatenate(
                [gW.ravel(), gb, gstart, gtrans.ravel()]
            ) + self.l2 * theta
            return nll, grad

        # Imported here, not at module level: only training needs the
        # optimizer, and ``scipy.optimize`` is the costliest import of
        # every ``repro`` process (``repro.ml`` imports this module).
        from scipy.optimize import minimize

        theta0 = np.zeros(k * d + k + k + k * k)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "ftol": self.tol},
        )
        W, b, start, trans = self._unpack(result.x, k, d)
        self._W, self._b, self._start, self._trans = W, b, start, trans
        return self

    def _nll_and_grads(self, X, mask, y, lengths, W, b, start, trans):
        """Negative log-likelihood and gradients, batched over sequences."""
        n, t_max, d = X.shape
        k = W.shape[0]
        emissions = X @ W.T + b[None, None, :]  # (N, T, K)

        # ---------------- forward ----------------
        alphas = np.empty((n, t_max, k))
        alphas[:, 0] = start[None, :] + emissions[:, 0]
        for t in range(1, t_max):
            candidate = (
                logsumexp(
                    alphas[:, t - 1][:, :, None] + trans[None, :, :], axis=1
                )
                + emissions[:, t]
            )
            # Padded steps carry the previous alpha forward unchanged.
            alphas[:, t] = np.where(mask[:, t][:, None], candidate,
                                    alphas[:, t - 1])
        log_z = logsumexp(alphas[np.arange(n), lengths - 1], axis=1)  # (N,)

        # ---------------- backward ----------------
        betas = np.zeros((n, t_max, k))
        # beta at each sequence's final step is 0; we fill right-to-left.
        for t in range(t_max - 2, -1, -1):
            candidate = logsumexp(
                trans[None, :, :]
                + (emissions[:, t + 1] + betas[:, t + 1])[:, None, :],
                axis=2,
            )
            # Only positions with a real successor update; the final
            # position of each sequence keeps beta = 0.
            has_successor = mask[:, t + 1]
            betas[:, t] = np.where(has_successor[:, None], candidate,
                                   betas[:, t])

        # ---------------- marginals ----------------
        log_marginal = alphas + betas - log_z[:, None, None]
        marginal = np.exp(log_marginal) * mask[:, :, None]  # (N, T, K)

        # Pairwise marginals xi[t] for transitions t-1 -> t.
        pair_mask = mask[:, 1:] & mask[:, :-1]  # (N, T-1)
        if t_max > 1:
            log_xi = (
                alphas[:, :-1, :, None]
                + trans[None, None, :, :]
                + (emissions[:, 1:] + betas[:, 1:])[:, :, None, :]
                - log_z[:, None, None, None]
            )
            xi = np.exp(log_xi) * pair_mask[:, :, None, None]
        else:
            xi = np.zeros((n, 0, k, k))

        # ---------------- empirical counts ----------------
        one_hot = np.zeros((n, t_max, k))
        flat_idx = np.nonzero(mask)
        one_hot[flat_idx[0], flat_idx[1], y[flat_idx]] = 1.0

        # Log-likelihood of the gold paths.
        gold_emission = (emissions * one_hot).sum(axis=(1, 2))
        gold_start = start[y[:, 0]]
        if t_max > 1:
            gold_trans = (
                trans[y[:, :-1], y[:, 1:]] * pair_mask
            ).sum(axis=1)
        else:
            gold_trans = np.zeros(n)
        log_likelihood = (gold_emission + gold_start + gold_trans
                          - log_z).sum()

        # ---------------- gradients (expected - empirical) ----------------
        delta = marginal - one_hot  # (N, T, K)
        gW = np.einsum("ntk,ntd->kd", delta, X)
        gb = delta.sum(axis=(0, 1))
        gstart = marginal[:, 0].sum(axis=0) - one_hot[:, 0].sum(axis=0)
        if t_max > 1:
            emp_trans = np.zeros((k, k))
            np.add.at(
                emp_trans,
                (y[:, :-1][pair_mask], y[:, 1:][pair_mask]),
                1.0,
            )
            gtrans = xi.sum(axis=(0, 1)) - emp_trans
        else:
            gtrans = np.zeros((k, k))

        return -log_likelihood, (gW, gb, gstart, gtrans)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self._W is None:
            raise NotFittedError("LinearChainCRF must be fitted first")

    def predict(self, sequences: list[np.ndarray]) -> list[np.ndarray]:
        """Viterbi decoding: the most probable label path per sequence."""
        self._require_fitted()
        return [self._viterbi(np.asarray(s, dtype=np.float64))
                for s in sequences]

    def _viterbi(self, seq: np.ndarray) -> np.ndarray:
        emissions = seq @ self._W.T + self._b[None, :]  # (T, K)
        t_len, k = emissions.shape
        score = self._start + emissions[0]
        backpointers = np.zeros((t_len, k), dtype=np.int64)
        for t in range(1, t_len):
            candidate = score[:, None] + self._trans
            backpointers[t] = np.argmax(candidate, axis=0)
            score = candidate[backpointers[t], np.arange(k)] + emissions[t]
        path = np.zeros(t_len, dtype=np.int64)
        path[-1] = int(np.argmax(score))
        for t in range(t_len - 1, 0, -1):
            path[t - 1] = backpointers[t, path[t]]
        return self.classes_[path]

    def predict_marginals(self, sequences: list[np.ndarray]) -> list[np.ndarray]:
        """Per-position posterior marginals ``P(y_t = k | x)``."""
        self._require_fitted()
        out: list[np.ndarray] = []
        for seq in sequences:
            seq = np.asarray(seq, dtype=np.float64)
            X, mask, _ = _pad_sequences([seq], None)
            lengths = mask.sum(axis=1)
            emissions = X @ self._W.T + self._b[None, None, :]
            n, t_max, k = emissions.shape
            alphas = np.empty((n, t_max, k))
            alphas[:, 0] = self._start[None, :] + emissions[:, 0]
            for t in range(1, t_max):
                alphas[:, t] = (
                    logsumexp(
                        alphas[:, t - 1][:, :, None] + self._trans[None],
                        axis=1,
                    )
                    + emissions[:, t]
                )
            log_z = logsumexp(alphas[0, lengths[0] - 1])
            betas = np.zeros((n, t_max, k))
            for t in range(t_max - 2, -1, -1):
                betas[:, t] = logsumexp(
                    self._trans[None]
                    + (emissions[:, t + 1] + betas[:, t + 1])[:, None, :],
                    axis=2,
                )
            marginal = np.exp(alphas[0] + betas[0] - log_z)
            marginal /= marginal.sum(axis=1, keepdims=True)
            out.append(marginal)
        return out
