"""Abstract interface shared by all emission families.

An emission model owns the per-state observation distributions ``B`` of the
HMM.  The HMM core only ever talks to emissions through this interface, so
the same forward-backward / Viterbi / EM machinery serves the Gaussian toy
experiment, the categorical PoS-tagging experiment, and the Bernoulli OCR
experiment.

Emissions reach the inference kernels in two forms.  The log-domain kernels
(Viterbi, likelihood, the ``log`` reference backend, streaming) take
:meth:`EmissionModel.log_likelihoods` tables.  The scaled forward-backward
kernel, which the trainer's E-step runs, asks the model itself for
probability-domain observation weights in packed order
(:meth:`EmissionModel.scaled_likelihoods`): by default the log table's
gathered rows shifted by their maximum and exponentiated
(:func:`scaled_rows`), while categorical emissions gather the weights
straight from ``B`` with no log and no ``exp``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmm.corpus import CompiledCorpus


def scaled_rows(  # repro: hot-path
    log_b: np.ndarray, rows: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted observation weights ``exp(log_b[rows] - m)``.

    The rows of the ``(N, K)`` log-likelihood table ``log_b`` listed in
    ``rows`` are gathered into ``out`` and exponentiated in place after
    subtracting each row's maximum ``m`` (0 for a row with no finite
    entry), so every weight lies in ``[0, 1]``.  Returns ``(out, m)``.
    """
    # mode="clip" keeps take from buffering its output (every row is in
    # range), so the gather allocates nothing beyond ``out``.
    obs = np.take(log_b, rows, axis=0, out=out, mode="clip")
    shift = np.max(obs, axis=1)
    shift[~np.isfinite(shift)] = 0.0
    obs -= shift[:, None]
    return np.exp(obs, out=obs), shift


class EmissionModel(abc.ABC):
    """Per-state observation distributions of an HMM.

    Concrete implementations store their parameters as numpy arrays and
    expose three operations: scoring observations, re-estimating parameters
    from weighted posteriors (the emission part of the M-step), and sampling.
    """

    #: number of hidden states the emission model covers
    n_states: int

    #: short identifier written into persisted state dicts; concrete
    #: families override it and register themselves in ``_FAMILY_REGISTRY``.
    family: str = "abstract"

    _FAMILY_REGISTRY: dict[str, type["EmissionModel"]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.family != "abstract":
            EmissionModel._FAMILY_REGISTRY[cls.family] = cls

    @abc.abstractmethod
    def to_state_dict(self) -> dict:
        """Serializable parameter snapshot (JSON scalars + numpy arrays).

        The dict must carry ``"family": self.family`` so
        :meth:`from_state_dict` can dispatch to the right subclass.
        """

    @classmethod
    def from_state_dict(cls, state: dict) -> "EmissionModel":
        """Rebuild an emission model from :meth:`to_state_dict` output.

        Called on :class:`EmissionModel` it dispatches on ``state["family"]``;
        called on a concrete subclass it rebuilds that family directly.
        """
        family = state.get("family")
        if cls is EmissionModel:
            try:
                target = cls._FAMILY_REGISTRY[family]
            except KeyError:
                raise ValueError(
                    f"unknown emission family {family!r}; known: "
                    f"{sorted(cls._FAMILY_REGISTRY)}"
                ) from None
            return target.from_state_dict(state)
        if family != cls.family:
            raise ValueError(
                f"state dict holds family {family!r}, not {cls.family!r}"
            )
        return cls._from_state_dict(state)

    @classmethod
    @abc.abstractmethod
    def _from_state_dict(cls, state: dict) -> "EmissionModel":
        """Family-specific reconstruction (``state["family"]`` already checked)."""

    @abc.abstractmethod
    def log_likelihoods(self, observations: np.ndarray) -> np.ndarray:
        """Log-likelihood of every observation under every state.

        Every family scores timesteps independently, so ``observations``
        may be one sequence or the flat token array of a whole corpus
        (:attr:`~repro.hmm.corpus.CompiledCorpus.concat`): a single
        sequence is a one-sequence corpus.

        Parameters
        ----------
        observations:
            Observations stacked along the first axis (time).

        Returns
        -------
        numpy.ndarray
            Array of shape ``(N, n_states)`` with entries
            ``log P(y_t | x_t = i)``.
        """

    def log_likelihoods_batch(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Emission tables for a list of sequences.

        Equivalent to ``[self.log_likelihoods(s) for s in sequences]``.
        The engine and the tagging service score a compiled corpus with one
        :meth:`log_likelihoods` call instead, and the trainer's E-step
        makes one :meth:`scaled_likelihoods` call per iteration.
        """
        return [self.log_likelihoods(sequence) for sequence in sequences]

    def scaled_likelihoods(
        self, observations: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Probability-domain observation weights of ``observations[rows]``.

        Row ``r`` of the weights, written into ``out`` (shape
        ``(len(rows), n_states)``), is ``P(y | x = i)`` for the token
        ``observations[rows[r]]``, divided by ``exp(shift[r])``, a factor
        common to the row.  The scaled forward-backward kernel needs no
        more: it renormalizes its messages at every step, and adds the
        shifts back to the log-likelihood.  Returns ``(weights, shift)``;
        ``shift`` is ``None`` when the weights are the probabilities
        themselves.

        The default scores ``observations`` with :meth:`log_likelihoods`
        and shifts every gathered row by its maximum (:func:`scaled_rows`).
        A family whose likelihoods are probabilities to begin with
        overrides it to skip the log and the ``exp``.
        """
        return scaled_rows(self.log_likelihoods(observations), rows, out)

    @abc.abstractmethod
    def m_step_compiled(self, corpus: "CompiledCorpus", gamma_concat: np.ndarray) -> None:
        """Update parameters from posterior state responsibilities.

        ``gamma_concat`` has shape ``(n_tokens, n_states)``, is aligned
        with ``corpus.concat`` and holds ``q(x_t = i)`` for every token of
        the corpus (one-hot rows for supervised fits).  Implementations
        update their parameters in place with the standard EM
        weighted-average updates.
        """

    @abc.abstractmethod
    def sample(self, state: int, rng: np.random.Generator) -> np.ndarray | float | int:
        """Draw one observation from state ``state``."""

    @abc.abstractmethod
    def initialize_random(self, sequences: Sequence[np.ndarray], seed: SeedLike = None) -> None:
        """Randomly (re-)initialize parameters before EM, using the data scale."""

    @abc.abstractmethod
    def copy(self) -> "EmissionModel":
        """Deep copy of the emission model (used to snapshot EM state)."""
