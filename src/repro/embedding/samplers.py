"""Sampling machinery for the E-Step (paper Sec. 4.5.1).

Each SGD iteration needs

* a tie ``e`` drawn with probability ``P_c(e) ∝ deg_tie(e)``,
* a connected tie ``e' ∈ c(e)`` drawn uniformly,
* ``λ`` negative ties drawn with ``P_n(f) ∝ deg_tie(f)^{3/4}`` (Eq. 9).

Weighted draws use Walker's alias method, giving O(1) per sample after
O(n) setup — the same approach as the word2vec reference implementation.

Two sampling paths share the machinery:

* the **per-call path** (:meth:`ConnectedPairSampler.sample_pairs` /
  :meth:`~ConnectedPairSampler.sample_negatives`) draws one batch at a
  time, and
* the **planned path** (:class:`SamplePlanner` → :class:`SamplePlan`)
  draws a whole segment of pairs, successors and negatives in three
  vectorized mega-draws (filled one row block at a time), then hands
  zero-copy per-batch views to the kernels.  Each mega-draw consumes
  exactly one uniform double per sampled element from a
  category-separated child stream, so the draws are *plan-granularity
  invariant*: planning a run in one mega-plan or in many small chunks
  produces bit-identical samples.

Every trainer (DeepDirect, LINE, node2vec) walks its plan through
:func:`planned_batches`, which draws one segment of at most
``_PLAN_SEGMENT_BYTES`` at a time, so a fit's plan memory is bounded
whatever its pair budget.  A shard of the schedule that starts ``k``
pairs in moves its streams ``k`` pairs ahead first (:func:`advanced`),
so a HOGWILD worker draws exactly the sequential run's samples for its
own batches.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, Iterator

import numpy as np

from ..graph import MixedSocialNetwork
from ..graph.store import TIE_INDEX_DTYPE
from ..obs.trace import span as trace_span
from ..utils import row_blocks

#: Byte budget of one sample-plan segment (the drawn id arrays).  Plan
#: draws are granularity-invariant, so the budget bounds memory only:
#: it never changes a trajectory.
_PLAN_SEGMENT_BYTES = 4 << 20


def _index_dtype(n: int) -> np.dtype:
    """Dtype for ids in ``range(n)``: the store's ``TIE_INDEX_DTYPE``
    while it can hold them, int64 beyond."""
    if n <= np.iinfo(TIE_INDEX_DTYPE).max:
        return np.dtype(TIE_INDEX_DTYPE)
    return np.dtype(np.int64)


class AliasSampler:
    """O(1) weighted sampling via Walker's alias method.

    Telemetry attributes: ``n_draws`` counts samples drawn over the
    sampler's lifetime, ``setup_seconds`` is the alias-table build time.
    """

    def __init__(self, weights: np.ndarray) -> None:
        setup_start = time.perf_counter()
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("at least one weight must be positive")

        n = len(weights)
        # Normalise before scaling: each ratio lies in [0, 1], so this
        # cannot overflow even when ``total`` is subnormal (a raw
        # ``n / total`` turns infinite and poisons the table with NaNs).
        prob = (weights / total) * n
        self._prob = np.ones(n)
        self._alias = np.arange(n, dtype=_index_dtype(n))

        # Round-based vectorised pairing: each round matches the first
        # ``k = min(|small|, |large|)`` entries of the two worklists
        # one-to-one, donates mass, and reclassifies the donors.  Every
        # index appears in at most one list at a time, so the fancy-index
        # writes within a round never collide.  Typical weight vectors
        # finish in a handful of rounds; heavily skewed ones (one huge
        # weight absorbing thousands of smalls one round at a time) fall
        # back to the sequential stack loop after a bounded number of
        # rounds so setup stays O(n) in the worst case.
        small = np.flatnonzero(prob < 1.0)
        large = np.flatnonzero(prob >= 1.0)
        for _round in range(64):
            if not (small.size and large.size):
                break
            k = min(small.size, large.size)
            s, l = small[:k], large[:k]
            self._prob[s] = prob[s]
            self._alias[s] = l
            prob[l] += prob[s] - 1.0
            still_small = prob[l] < 1.0
            small = np.concatenate([small[k:], l[still_small]])
            large = np.concatenate([large[k:], l[~still_small]])
        if small.size and large.size:
            small_list, large_list = small.tolist(), large.tolist()
            while small_list and large_list:
                s_i, l_i = small_list.pop(), large_list.pop()
                self._prob[s_i] = prob[s_i]
                self._alias[s_i] = l_i
                prob[l_i] = prob[l_i] + prob[s_i] - 1.0
                (small_list if prob[l_i] < 1.0 else large_list).append(l_i)
            small = np.asarray(small_list, dtype=np.int64)
            large = np.asarray(large_list, dtype=np.int64)
        # Leftovers are 1.0 up to float error.
        self._prob[small] = 1.0
        self._prob[large] = 1.0
        self.n_draws = 0
        self.setup_seconds = time.perf_counter() - setup_start

    def sample(
        self, size: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw indices with the configured weights.

        ``size`` must describe at least one draw: a positive int, or a
        non-empty tuple of positive dims.  Empty requests are almost
        always an upstream bug (a zero batch size or an empty schedule),
        so they raise instead of silently returning an empty array.
        """
        if isinstance(size, tuple):
            if len(size) == 0 or any(int(d) < 1 for d in size):
                raise ValueError(
                    "size must be a non-empty tuple of positive dims, "
                    f"got {size!r}"
                )
        elif int(size) < 1:
            raise ValueError(f"size must be positive, got {size!r}")
        self.n_draws += int(np.prod(size, dtype=np.int64))
        idx = rng.integers(0, len(self._prob), size=size)
        coin = rng.random(size=size)
        return np.where(coin < self._prob[idx], idx, self._alias[idx])

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Map pre-drawn uniforms in ``[0, 1)`` to weighted indices.

        The planned counterpart of :meth:`sample`: the bucket index and
        the acceptance coin are both carved out of the *same* uniform
        (``scaled = u·n``; the integer part picks the bucket, the
        fractional part is the coin — independent by construction).
        Consuming exactly one double per draw is what makes mega-draws
        split across plan chunks identical to one combined draw.
        """
        u = np.asarray(u)
        if u.size == 0:
            raise ValueError("pick needs at least one uniform")
        n = len(self._prob)
        scaled = u * n
        idx = scaled.astype(np.int64)
        # u == 1 - eps can round scaled up to exactly n in low precision.
        np.minimum(idx, n - 1, out=idx)
        frac = scaled - idx
        self.n_draws += int(idx.size)
        return np.where(frac < self._prob[idx], idx, self._alias[idx])


class ConnectedPairSampler:
    """Samples connected tie pairs ``(e, e')`` per the paper's strategy.

    ``e ~ P_c ∝ deg_tie``; then ``e'`` uniform over ``c(e)``.  The
    uniform inner draw picks from all out-ties of ``dst(e)`` and rejects
    the single back-tie ``(dst, src)``, which is a uniform draw over
    ``c(e)`` because exactly one out-tie is excluded by Definition 4.

    Ties with ``deg_tie(e) = 0`` (the only out-tie of ``dst(e)`` is the
    back-tie, so ``c(e)`` is empty) are excluded from the source
    distribution up front: they carry zero probability mass anyway, and
    letting the rejection loop draw them would spin forever since every
    redraw lands on the back-tie.
    """

    def __init__(self, network: MixedSocialNetwork) -> None:
        setup_start = time.perf_counter()
        with trace_span("sampler.setup", n_ties=network.n_ties):
            self.network = network
            self._tie_degrees = network.tie_degrees()
            if self._tie_degrees.sum() == 0:
                raise ValueError(
                    "network has no connected tie pairs; nothing to embed"
                )
            # When every degree is positive (the common case) this subset
            # is the identity map, so the sampling stream is unchanged.
            self._sampleable_ids = np.flatnonzero(
                self._tie_degrees > 0
            ).astype(_index_dtype(network.n_ties))
            self._source_sampler = AliasSampler(
                self._tie_degrees[self._sampleable_ids].astype(float)
            )
            noise = self._tie_degrees.astype(float) ** 0.75
            if noise.sum() == 0:
                noise = np.ones_like(noise)
            self._noise_sampler = AliasSampler(noise)
            self._offsets, self._out_tie_ids = (
                network._ensure_out_csr()  # noqa: SLF001
            )
            self._back_pos: np.ndarray | None = None
            self.n_rejection_redraws = 0
        self.setup_seconds = time.perf_counter() - setup_start

    def _ensure_back_positions(self) -> np.ndarray:
        """``back_pos[e]``: CSR slot of the back-tie inside ``dst(e)``'s
        out-segment.

        Every oriented tie appears exactly once in the out-CSR, so the
        position of ``reverse_of[e]`` within the segment of its source
        node (= ``dst(e)``) is well defined.  Knowing it lets the planned
        successor draw *remap around* the back-tie instead of rejecting
        it: a single uniform over the ``deg_tie(e)`` allowed slots.
        """
        if self._back_pos is None:
            out = self._out_tie_ids
            n = self.network.n_ties
            pos_of_tie = np.empty(n, dtype=_index_dtype(n))
            pos_of_tie[out] = (
                np.arange(len(out)) - self._offsets[self.network.tie_src[out]]
            )
            self._back_pos = pos_of_tie[self.network.reverse_of]
        return self._back_pos

    def planned_pairs(self, u: np.ndarray) -> np.ndarray:
        """Source ties ``e ~ P_c`` from pre-drawn uniforms (one each)."""
        return self._sampleable_ids[self._source_sampler.pick(u)]

    def planned_successors(self, e: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Uniform ``e' ∈ c(e)`` from one pre-drawn uniform per pair.

        The batched back-tie resolution: draw a slot ``k`` uniform over
        the ``deg_tie(e)`` non-back-tie out-ties of ``dst(e)`` and shift
        it past the back-tie's slot when needed.  Exactly equivalent to
        rejection sampling (uniform over ``c(e)``), but a single
        vectorized pass with no redraw loop.
        """
        back_pos = self._ensure_back_positions()
        deg = self._tie_degrees[e]
        k = (u * deg).astype(np.int64)
        np.minimum(k, deg - 1, out=k)
        k += k >= back_pos[e]
        return self._out_tie_ids[self._offsets[self.network.tie_dst[e]] + k]

    def planned_negatives(self, u: np.ndarray) -> np.ndarray:
        """Negative tie ids ``~ P_n`` from pre-drawn uniforms."""
        return self._noise_sampler.pick(u)

    def sample_pairs(
        self, batch: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``batch`` pairs ``(e, e')``; both arrays have length ``batch``."""
        e = self._sampleable_ids[self._source_sampler.sample(batch, rng)]
        dst = self.network.tie_dst[e]
        src = self.network.tie_src[e]
        lo, hi = self._offsets[dst], self._offsets[dst + 1]

        # Uniform over out-ties of dst, rejecting the unique back-tie.
        span = hi - lo
        successor = self._out_tie_ids[
            lo + rng.integers(0, np.maximum(span, 1), size=batch)
        ]
        bad = self.network.tie_dst[successor] == src
        while np.any(bad):
            redo = np.flatnonzero(bad)
            self.n_rejection_redraws += len(redo)
            successor[redo] = self._out_tie_ids[
                lo[redo]
                + rng.integers(0, np.maximum(span[redo], 1), size=len(redo))
            ]
            bad[redo] = self.network.tie_dst[successor[redo]] == src[redo]
        return e, successor

    def sample_negatives(
        self, batch: int, n_negative: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a ``(batch, n_negative)`` block of negative tie ids."""
        return self._noise_sampler.sample((batch, n_negative), rng)

    def stats(self) -> dict[str, float | int]:
        """Lifetime telemetry: draw counts and setup wall-clock time.

        Keys ending in ``_s`` are wall-clock fields (volatile across
        runs); the draw counts are deterministic under a fixed seed.
        """
        return {
            "pair_draws": self._source_sampler.n_draws,
            "negative_draws": self._noise_sampler.n_draws,
            "rejection_redraws": self.n_rejection_redraws,
            "sampler_setup_s": self.setup_seconds,
        }


class SamplePlan:
    """One planned segment of the training schedule.

    Holds the mega-drawn ``e`` / ``successor`` (both ``(n_pairs,)``) and
    ``negatives`` (``(n_pairs, λ)``) arrays; :meth:`batch` hands out
    zero-copy views, so iterating a plan allocates nothing.
    """

    __slots__ = ("e", "successor", "negatives", "batch_size")

    def __init__(
        self,
        e: np.ndarray,
        successor: np.ndarray,
        negatives: np.ndarray,
        batch_size: int,
    ) -> None:
        if e.ndim != 1 or e.shape != successor.shape:
            raise ValueError("e and successor must be equal-length 1-D arrays")
        if negatives.ndim != 2 or negatives.shape[0] != len(e):
            raise ValueError("negatives must be (n_pairs, n_negative)")
        if int(batch_size) < 1:
            raise ValueError("batch_size must be at least 1")
        self.e = e
        self.successor = successor
        self.negatives = negatives
        self.batch_size = int(batch_size)

    @property
    def n_pairs(self) -> int:
        """Total pairs covered by this plan."""
        return len(self.e)

    @property
    def n_batches(self) -> int:
        """Number of batches the plan slices into (last may be short)."""
        return -(-self.n_pairs // self.batch_size)

    def batch(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(e, successor, negatives)`` views for batch ``i``."""
        if not 0 <= i < self.n_batches:
            raise IndexError(
                f"batch {i} out of range for plan with {self.n_batches} batches"
            )
        lo = i * self.batch_size
        hi = min(lo + self.batch_size, self.n_pairs)
        return self.e[lo:hi], self.successor[lo:hi], self.negatives[lo:hi]


class SamplePlanner:
    """Epoch-scale sample planning over a :class:`ConnectedPairSampler`.

    Drawing per batch costs a Python round-trip through the alias
    sampler, the RNG and the back-tie rejection loop every ~256 pairs;
    at fused-kernel speeds that overhead rivals the numerics.  The
    planner amortizes it: :meth:`plan` draws every pair, successor and
    negative of a whole schedule segment in three vectorized mega-draws
    under a single ``estep.sample`` span.

    Determinism contract: the planner owns three category-separated
    child streams (``rng.spawn(3)`` — pair sources, successors,
    negatives), and every draw consumes exactly one uniform double per
    element in schedule order.  Planning ``N`` pairs in one call or in
    any sequence of chunks totalling ``N`` therefore yields bit-identical
    samples, which is what lets every trainer plan in byte-bounded
    segments, and a shard of the schedule start from :meth:`skipped`
    streams — same trajectory semantics, same draws.
    """

    def __init__(
        self,
        sampler: ConnectedPairSampler,
        n_negative: int,
        rng: np.random.Generator,
    ) -> None:
        if n_negative < 1:
            raise ValueError("n_negative must be at least 1")
        self.sampler = sampler
        self.n_negative = int(n_negative)
        self._pair_rng, self._succ_rng, self._neg_rng = rng.spawn(3)
        self.n_plans = 0

    @property
    def bytes_per_pair(self) -> int:
        """Plan bytes per pair: its tie id, successor and negatives."""
        itemsize = _index_dtype(self.sampler.network.n_ties).itemsize
        return (2 + self.n_negative) * itemsize

    def skipped(self, n_pairs: int) -> "SamplePlanner":
        """A planner over the same sampler whose streams start ``n_pairs``
        pairs further on; this planner's streams are left untouched."""
        out = copy.copy(self)
        out._pair_rng = advanced(self._pair_rng, n_pairs)
        out._succ_rng = advanced(self._succ_rng, n_pairs)
        out._neg_rng = advanced(self._neg_rng, n_pairs * self.n_negative)
        return out

    def draw(self, n_pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(e, successor, negatives)`` of the next ``n_pairs`` pairs,
        the ``draw`` of :func:`planned_batches`."""
        plan = self.plan(n_pairs, 1)
        return plan.e, plan.successor, plan.negatives

    def plan(self, n_pairs: int, batch_size: int) -> SamplePlan:
        """Mega-draw ``n_pairs`` pairs/successors/negatives as one plan.

        The plan's arrays hold tie ids at the store's index width and
        are filled one row block at a time, so the float64 uniforms and
        the alias-pick temporaries never exceed one block.  Each stream
        still consumes one uniform per element in schedule order, so
        the plan equals a single whole-plan draw bit for bit.
        """
        if n_pairs < 1:
            raise ValueError(f"n_pairs must be positive, got {n_pairs!r}")
        s = self.sampler
        dt = _index_dtype(s.network.n_ties)
        e = np.empty(n_pairs, dtype=dt)
        successor = np.empty(n_pairs, dtype=dt)
        negatives = np.empty((n_pairs, self.n_negative), dtype=dt)
        with trace_span(
            "estep.sample", pairs=int(n_pairs), n_negative=self.n_negative,
            planned=True,
        ):
            for rows in row_blocks(n_pairs):
                m = rows.stop - rows.start
                e[rows] = s.planned_pairs(self._pair_rng.random(m))
                successor[rows] = s.planned_successors(
                    e[rows], self._succ_rng.random(m)
                )
                negatives[rows] = s.planned_negatives(
                    self._neg_rng.random((m, self.n_negative))
                )
        self.n_plans += 1
        return SamplePlan(e, successor, negatives, batch_size)


class PairPlanner:
    """Skip-gram samples ``(u, v, negatives)``, LINE's and node2vec's plan.

    Each sample consumes ``1 + λ`` uniforms of ``stream`` in order: the
    first picks a row of the ``(u, v)`` pair table uniformly, the other
    ``λ`` pick negatives from ``noise``.  Any split of a run into draws
    therefore gives the same samples, and :meth:`skipped` starts a shard
    of the schedule mid-stream.
    """

    def __init__(
        self,
        u: np.ndarray,
        v: np.ndarray,
        noise: AliasSampler,
        n_negative: int,
        stream: np.random.Generator,
        span_name: str,
    ) -> None:
        self.u, self.v, self.noise = u, v, noise
        self.n_negative = int(n_negative)
        self.stream = stream
        self.span_name = span_name

    @property
    def bytes_per_pair(self) -> int:
        """Plan bytes per sample: its pair and its int64 negatives."""
        return (self.u.itemsize + self.v.itemsize
                + self.n_negative * np.dtype(np.int64).itemsize)

    def skipped(self, n_samples: int) -> "PairPlanner":
        """A planner whose stream starts ``n_samples`` samples further on;
        this planner's stream is left untouched."""
        out = copy.copy(self)
        out.stream = advanced(self.stream, n_samples * (1 + self.n_negative))
        return out

    def draw(self, n_plan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs and negatives of the next ``n_plan`` samples, the
        ``draw`` of :func:`planned_batches`."""
        with trace_span(self.span_name, samples=n_plan, planned=True):
            u = self.stream.random((n_plan, 1 + self.n_negative))
            picks = uniform_indices(u[:, 0], len(self.u))
            return self.u[picks], self.v[picks], self.noise.pick(u[:, 1:])


def advanced(rng: np.random.Generator, n_doubles: int) -> np.random.Generator:
    """A copy of ``rng`` moved ``n_doubles`` uniform doubles ahead.

    Every planned element takes one ``random()`` double, so a shard that
    starts ``k`` elements into a stream draws elements ``k, k+1, …`` of
    one long draw.  PCG64-family generators jump there exactly
    (``advance`` steps one 64-bit output per double); the others
    (``MT19937`` and ``SFC64`` have no ``advance``, ``Philox`` advances
    in 4-output blocks) draw the skipped doubles in row blocks and drop
    them.
    """
    out = copy.deepcopy(rng)
    bit_generator = out.bit_generator
    if isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        bit_generator.advance(n_doubles)
    else:
        for rows in row_blocks(n_doubles):
            out.random(rows.stop - rows.start)
    return out


def planned_batches(
    draw: Callable[[int], tuple[np.ndarray, ...]],
    n_batches: int,
    batch_size: int,
    bytes_per_pair: int,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Per-batch views of ``n_batches`` batches, drawn segment by segment.

    ``draw(n_pairs)`` returns arrays whose first axis runs over pairs.
    Each call draws one segment: as many whole batches as fit
    ``_PLAN_SEGMENT_BYTES`` at ``bytes_per_pair``, and at least one.
    """
    per_segment = max(1, _PLAN_SEGMENT_BYTES // (bytes_per_pair * batch_size))
    for start in range(0, n_batches, per_segment):
        segment = draw(min(per_segment, n_batches - start) * batch_size)
        for lo in range(0, len(segment[0]), batch_size):
            yield tuple(a[lo : lo + batch_size] for a in segment)


def uniform_indices(u: np.ndarray, n: int) -> np.ndarray:
    """Indices uniform over ``range(n)`` from pre-drawn uniforms (one each)."""
    idx = (u * n).astype(np.int64)
    # u == 1 - eps can round u·n up to exactly n.
    return np.minimum(idx, n - 1, out=idx)


def sample_common_neighbors(
    network: MixedSocialNetwork,
    u: int,
    v: int,
    gamma: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``t(u, v)``: up to ``gamma`` random common neighbours (Eq. 15)."""
    common = network.common_neighbors(u, v)
    if len(common) <= gamma:
        return common
    return rng.choice(common, size=gamma, replace=False)


def sample_common_neighbors_batch(
    network: MixedSocialNetwork,
    u: np.ndarray,
    v: np.ndarray,
    gamma: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``t(u, v)``: common neighbours for many pairs at once.

    The vectorized counterpart of :func:`sample_common_neighbors` — one
    lexsort-based intersection over the concatenated (tagged) und-CSR
    neighbour lists instead of a Python set intersection per pair, the
    same technique as
    :func:`repro.embedding.patterns.build_triad_neighborhoods`.

    Returns ``(witnesses, counts)``: ``witnesses`` is ``(len(u), gamma)``
    node ids padded with ``-1``; ``counts[i]`` is the number of sampled
    witnesses (``min(|common(u_i, v_i)|, gamma)``).  Down-sampling to
    ``gamma`` keeps the smallest random keys per pair, a uniform draw
    without replacement.
    """
    from .patterns import _ragged_csr_rows

    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("u and v must be 1-D arrays of equal length")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    witnesses = np.full((len(u), gamma), -1, dtype=np.int64)
    counts = np.zeros(len(u), dtype=np.int64)
    if len(u) == 0:
        return witnesses, counts

    offsets, targets = network._ensure_und_csr()  # noqa: SLF001
    pos_u, grp_u = _ragged_csr_rows(offsets, u)
    pos_v, grp_v = _ragged_csr_rows(offsets, v)
    grp = np.concatenate([grp_u, grp_v])
    nbr = np.concatenate([targets[pos_u], targets[pos_v]])
    side = np.concatenate(
        [np.zeros(len(pos_u), dtype=np.int8), np.ones(len(pos_v), dtype=np.int8)]
    )

    # Neighbour lists are per-node unique, so after sorting by (pair,
    # neighbour, side) every common neighbour is exactly one adjacent
    # (u-side, v-side) duo.
    order = np.lexsort((side, nbr, grp))
    grp_s, nbr_s, side_s = grp[order], nbr[order], side[order]
    is_pair = (
        (grp_s[:-1] == grp_s[1:])
        & (nbr_s[:-1] == nbr_s[1:])
        & (side_s[:-1] == 0)
        & (side_s[1:] == 1)
    )
    hit = np.flatnonzero(is_pair)
    if hit.size:
        m_grp = grp_s[hit]
        m_nbr = nbr_s[hit]
        keys = rng.random(hit.size)
        order2 = np.lexsort((keys, m_grp))
        g = m_grp[order2]
        group_start = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
        group_len = np.diff(np.concatenate([group_start, [len(g)]]))
        slot = np.arange(len(g)) - np.repeat(group_start, group_len)
        keep = slot < gamma
        witnesses[g[keep], slot[keep]] = m_nbr[order2][keep]
        counts[:] = np.minimum(np.bincount(m_grp, minlength=len(u)), gamma)
    return witnesses, counts
