"""Hyper-parameters of the DeepDirect E-Step (paper Sec. 4, Table 1)."""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import check_non_negative, check_positive, check_probability


@dataclass(frozen=True)
class DeepDirectConfig:
    """Configuration of the DeepDirect edge-based embedding.

    Defaults follow the paper's experimental settings (Sec. 6.1):
    ``λ = 5`` negative samples, ``τ = 10`` passes over the connected tie
    pairs, ``l = 128`` dimensions, and grid-searched ``α``/``β``.

    Attributes
    ----------
    dimensions:
        Length ``l`` of the tie embedding vectors.
    alpha:
        Weight of the supervised loss ``L_label`` (Eq. 18).
    beta:
        Weight of the pattern loss ``L_pattern`` (Eq. 18).
    n_negative:
        Number ``λ`` of negative ties per positive pair (Eq. 9).
    gamma:
        Maximum number of common neighbours sampled into ``t(u, v)`` for
        the triad pseudo-labels (Eq. 15).
    epochs:
        ``τ``: number of passes over ``|C(G)|`` connected tie pairs.
    degree_threshold:
        ``T``: the degree pseudo-label only enters ``L_pattern`` when
        ``y^d_e > T`` (Eq. 16), i.e. when the degree gap is significant.
    learning_rate:
        Initial SGD learning rate; decays linearly to 1 % of the initial
        value over training (word2vec schedule).
    batch_size:
        Connected tie pairs per vectorised SGD step.  The paper's
        per-sample SGD corresponds to ``batch_size=1``; larger batches
        apply the same update rules with within-batch stale reads, the
        standard vectorisation of skip-gram training.
    grad_clip:
        Clip for the supervised error scalar (Eq. 21); guards against
        the loss explosion the paper warns about for large ``α``.
    max_pairs:
        Optional hard cap on total sampled pairs (overrides
        ``epochs * |C(G)|`` when smaller); useful for quick runs.
    pairs_per_tie:
        Optional density-normalised budget: caps total sampled pairs at
        ``pairs_per_tie * n_ties``.  ``|C(G)|`` grows superlinearly with
        density, so a fixed ``epochs`` over-trains dense graphs relative
        to sparse ones; this keeps per-tie training effort comparable
        across datasets.  The effective budget is the minimum of all
        three limits.
    workers:
        Number of lock-free HOGWILD SGD processes sharing the model
        arrays through ``multiprocessing.shared_memory``.  ``1`` (the
        default) trains in-process on private arrays, bit-identical
        under a fixed seed; ``>1`` trades bit-level run-to-run
        reproducibility for throughput: each worker owns a contiguous
        slice of the batch schedule and draws exactly the sequential
        run's samples for it, but scatter-add interleaving is
        scheduler-dependent.  See ``docs/performance.md``.
    min_pairs_per_worker:
        Adaptive-degradation floor for ``workers > 1``: when the total
        pair budget divided by ``workers`` falls below this, the run
        falls back to one worker with a ``RuntimeWarning`` (and
        ``hogwild_degraded`` in the ``fit_begin`` telemetry) —
        per-worker process/coordination overhead makes HOGWILD a
        slowdown on small schedules.  ``0`` disables the gate (always
        honour ``workers``).
    dtype:
        Parameter/arithmetic precision: ``"float64"`` (default, the
        historical bit-exact path) or ``"float32"`` (halves memory
        bandwidth on the kernel hot path; validated by the
        ``tests/kernel_parity`` harness at loosened tolerances).  RNG
        draws always happen in float64 and are rounded once at
        initialisation, so the sampling stream is identical across
        dtypes.
    """

    dimensions: int = 128
    alpha: float = 5.0
    beta: float = 1.0
    n_negative: int = 5
    gamma: int = 5
    epochs: float = 10.0
    degree_threshold: float = 0.6
    learning_rate: float = 0.025
    batch_size: int = 256
    grad_clip: float = 5.0
    max_pairs: int | None = None
    pairs_per_tie: float | None = None
    workers: int = 1
    min_pairs_per_worker: int = 50_000
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        check_non_negative(self.alpha, "alpha")
        check_non_negative(self.beta, "beta")
        if self.n_negative < 1:
            raise ValueError("n_negative must be at least 1")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        check_positive(self.epochs, "epochs")
        check_probability(self.degree_threshold, "degree_threshold")
        check_positive(self.learning_rate, "learning_rate")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        check_positive(self.grad_clip, "grad_clip")
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ValueError("max_pairs must be at least 1 when set")
        if self.pairs_per_tie is not None and self.pairs_per_tie <= 0:
            raise ValueError("pairs_per_tie must be positive when set")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.min_pairs_per_worker < 0:
            raise ValueError("min_pairs_per_worker must be non-negative")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                "dtype must be 'float64' or 'float32', got "
                f"{self.dtype!r}"
            )
