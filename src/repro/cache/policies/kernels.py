"""Vectorized policy kernels for the chunked fast simulator.

Each :class:`ReplacementPolicy` subclass that can express its update
rule as array operations registers a :class:`PolicyKernel` here.  A
kernel receives whole *rounds* of accesses at once -- the fast engine
guarantees every cache set appears at most once per round -- so
per-set logic (LFU decay, SLRU promotion, CLOCK hand sweeps) stays
bit-identical to the scalar hooks in the policy classes while running
as a handful of numpy operations per round.

Contract (mirrors the scalar hooks in
:mod:`repro.cache.policies.base`):

* ``on_hits``        <-> ``ReplacementPolicy.on_hit``
* ``admit``          <-> ``ReplacementPolicy.admit``
* ``fill_meta``      <-> ``ReplacementPolicy.fill_meta``
* ``select_victims`` <-> ``ReplacementPolicy.select_victim``

Every vectorized method must make exactly the decisions (including
tie-breaking: *first* way on ties, matching ``argmin_way``) and
exactly the metadata writes of its scalar counterpart, one access
per set per call.  A kernel that mirrors policy state outside the
cache planes (CLOCK's hands) writes it back in ``flush`` and re-reads
it in ``reload``: the engine's scalar tail drives the policy's own
hooks between the two.  The parity suite in
``tests/cache/test_simulate_fast_parity.py`` enforces all of this
differentially for every registered kernel.

A kernel whose four scalar hooks reduce to a handful of facts --
which plane ``select_victim`` takes the first argmin of, the
admission cut, whether ``on_hit`` stores the request score, and where
``fill_meta`` reads its value -- declares them through
``list_span`` (a :class:`ListSpan`), and the engine's scalar tail
then runs the exact list loop
:func:`repro.cache.simulate_fast._list_span` instead of calling the
hooks once per access.  ``LruKernel``, ``ScoreKernel`` and
``CombinedScoreKernel`` (all four Fig. 6 strategies) declare them;
every other kernel returns ``None`` and its tail keeps the reference
span.  ``tests/cache/test_list_span.py`` checks the loop against the
reference span for every declaration.

:class:`repro.cache.policies.random_.RandomPolicy` is deliberately
*not* registered: its victim draws consume a sequential RNG stream
whose order the chunk-reordering engine cannot preserve, so the fast
path falls back to the scalar reference for it (bit-exactness beats
throughput for a baseline policy).  Its counter-based sibling
:class:`~repro.cache.policies.random_.CounterRandomPolicy` closes
that gap: each victim is a pure hash of the access index, so
:class:`CounterRandomKernel` evaluates whole rounds order-free.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.belady import BeladyPolicy
from repro.cache.policies.clock import ClockPolicy
from repro.cache.policies.fifo import FifoPolicy
from repro.cache.policies.gmm_policy import ScoreBasedPolicy
from repro.cache.policies.lfu import LfuPolicy
from repro.cache.policies.lru import LruPolicy
from repro.cache.policies.random_ import (
    CounterRandomPolicy,
    splitmix64_array,
)
from repro.cache.policies.slru import SlruPolicy
from repro.cache.policies.twoq import TwoQPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.setassoc import SetAssociativeCache


class ListSpan(NamedTuple):
    """A kernel's scalar hooks as data, for the exact list loop.

    Each field restates one hook of the policy the kernel mirrors;
    every ``on_hit`` also refreshes the hit way's stamp.
    """

    #: ``select_victim`` is the first argmin of the set's ``meta`` row
    #: when True, of its ``stamp`` row when False.
    evict_meta: bool
    #: ``admit`` is ``score >= threshold``; ``None`` admits every miss.
    threshold: float | None
    #: ``on_hit`` also stores the request score in ``meta``.
    hit_meta: bool
    #: ``fill_meta`` is ``fill_scores.get(page, score)`` (an empty map
    #: stores the request score); ``None`` stores ``0.0``.
    fill_scores: Mapping[int, float] | None


class PolicyKernel:
    """Vectorized update rules for one policy instance.

    Subclasses override the hooks they need; the defaults implement
    the :class:`ReplacementPolicy` base behaviour (recency refresh on
    hits, admit everything, zero fill metadata).

    All index arrays are absolute: ``sets`` are set indices, ``ways``
    way indices, ``idx`` access indices into the full trace.  The
    engine guarantees ``sets`` contains no duplicates within one call.
    """

    #: When True the engine skips the ``admit`` call entirely (no
    #: bypass accounting needed); kernels with a real admission rule
    #: clear it.
    admits_all = True

    def __init__(
        self, policy: ReplacementPolicy, cache: "SetAssociativeCache"
    ) -> None:
        self.policy = policy
        self.cache = cache

    def supports(self) -> bool:
        """Whether this policy instance can run vectorized."""
        return True

    def on_hits(
        self,
        sets: np.ndarray,
        ways: np.ndarray,
        idx: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        """Vectorized ``on_hit``: default refreshes recency."""
        self.cache.stamp[sets, ways] = idx.astype(np.float64)

    def admit(
        self,
        pages: np.ndarray,
        scores: np.ndarray,
        is_write: np.ndarray,
        idx: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``admit``: default admits everything."""
        return np.ones(pages.shape[0], dtype=bool)

    def fill_meta(
        self, pages: np.ndarray, scores: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``fill_meta``: default stores zeros."""
        return np.zeros(pages.shape[0], dtype=np.float64)

    def select_victims(
        self, sets: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``select_victim`` for full sets."""
        raise NotImplementedError

    def list_span(self) -> ListSpan | None:
        """The facts the exact list loop needs, or ``None`` when the
        scalar tail must drive the policy's own hooks."""
        return None

    def flush(self) -> None:
        """Write kernel-side mirrors of policy state back into the
        policy object.  The engine calls this before handing a span
        to the scalar fallback (which drives the policy's own hooks)
        and once at the end of the run."""

    def reload(self) -> None:
        """Refresh kernel-side mirrors from the policy object after a
        scalar-fallback span may have mutated it."""

    def finalize(self) -> None:
        """End-of-run hook; default flushes mirrored state."""
        self.flush()


#: Registry: policy class -> kernel class.
KERNELS: dict[type[ReplacementPolicy], type[PolicyKernel]] = {}

#: The scalar hooks a kernel replaces; a subclass overriding any of
#: them relative to its registered base gets no kernel (safety net).
_HOOKS = ("on_hit", "admit", "fill_meta", "select_victim")


def register_kernel(policy_cls: type[ReplacementPolicy]):
    """Class decorator registering a kernel for ``policy_cls``."""

    def decorate(kernel_cls: type[PolicyKernel]) -> type[PolicyKernel]:
        KERNELS[policy_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(
    policy: ReplacementPolicy, cache: "SetAssociativeCache"
) -> PolicyKernel | None:
    """Kernel instance for ``policy``, or None when it must run scalar.

    Walks the policy's MRO for the most specific registered class;
    then verifies the concrete policy class does not override any
    scalar hook *below* that registration (a subclass with custom
    scalar behaviour silently falls back to the exact reference loop
    instead of running a kernel that no longer matches it).
    """
    registered: type[ReplacementPolicy] | None = None
    for cls in type(policy).__mro__:
        if cls in KERNELS:
            registered = cls
            break
    if registered is None:
        return None
    for hook in _HOOKS:
        if getattr(type(policy), hook) is not getattr(registered, hook):
            return None
    kernel = KERNELS[registered](policy, cache)
    if not kernel.supports():
        return None
    return kernel


def _argmin_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise argmin, first index on ties (matches ``argmin_way``)."""
    return values.argmin(axis=1)


def _argmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise argmax, first index on ties (matches ``argmax_way``)."""
    return values.argmax(axis=1)


@register_kernel(LruPolicy)
class LruKernel(PolicyKernel):
    """LRU: base recency refresh, evict the oldest stamp."""

    def select_victims(self, sets, idx):
        return _argmin_rows(self.cache.stamp[sets])

    def list_span(self):
        return ListSpan(False, None, False, None)


@register_kernel(FifoPolicy)
class FifoKernel(PolicyKernel):
    """FIFO: hits do not refresh; evict the earliest fill."""

    def on_hits(self, sets, ways, idx, scores):
        pass

    def select_victims(self, sets, idx):
        return _argmin_rows(self.cache.stamp[sets])


@register_kernel(LfuPolicy)
class LfuKernel(PolicyKernel):
    """LFU: count hits in ``meta`` (with optional per-set decay)."""

    def on_hits(self, sets, ways, idx, scores):
        cache = self.cache
        cache.stamp[sets, ways] = idx.astype(np.float64)
        decay = self.policy.decay
        if decay < 1.0:
            # Sets are unique within a round, so one row-scale per
            # set matches the scalar per-hit decay loop exactly.
            cache.meta[sets] *= decay
        cache.meta[sets, ways] += 1.0

    def fill_meta(self, pages, scores, idx):
        return np.ones(pages.shape[0], dtype=np.float64)

    def select_victims(self, sets, idx):
        return _argmin_rows(self.cache.meta[sets])


@register_kernel(ClockPolicy)
class ClockKernel(PolicyKernel):
    """CLOCK: reference bits in ``meta``, per-set hands as an array.

    The scalar hand sweep (clear bits until the first zero; victim is
    that way; a full sweep of ones clears the whole set and evicts the
    hand position) is replayed with one rotation per round.  Hands are
    mirrored into a dense array for vector gather/scatter and written
    back to the policy's sparse dict in :meth:`finalize`.
    """

    def __init__(self, policy, cache):
        super().__init__(policy, cache)
        n_sets = cache.geometry.n_sets
        self._hands = np.zeros(n_sets, dtype=np.int64)
        self._touched = np.zeros(n_sets, dtype=bool)
        self.reload()

    def on_hits(self, sets, ways, idx, scores):
        self.cache.stamp[sets, ways] = idx.astype(np.float64)
        self.cache.meta[sets, ways] = 1.0

    def fill_meta(self, pages, scores, idx):
        return np.ones(pages.shape[0], dtype=np.float64)

    def select_victims(self, sets, idx):
        cache = self.cache
        ways = cache.geometry.associativity
        rows = cache.meta[sets]  # (m, W) copy
        hands = self._hands[sets]
        offsets = np.arange(ways, dtype=np.int64)
        rot_cols = (hands[:, None] + offsets[None, :]) % ways
        rot = np.take_along_axis(rows, rot_cols, axis=1)
        is_zero = rot == 0.0
        has_zero = is_zero.any(axis=1)
        first_zero = is_zero.argmax(axis=1)
        # No zero bit: the sweep clears every way and evicts the hand.
        victim_offset = np.where(has_zero, first_zero, 0)
        clear_count = np.where(has_zero, first_zero, ways)
        clear_mask = offsets[None, :] < clear_count[:, None]
        row_index = np.broadcast_to(sets[:, None], rot_cols.shape)
        cache.meta[row_index[clear_mask], rot_cols[clear_mask]] = 0.0
        victims = (hands + victim_offset) % ways
        self._hands[sets] = (victims + 1) % ways
        self._touched[sets] = True
        return victims

    def flush(self):
        for set_index in np.nonzero(self._touched)[0]:
            self.policy._hands[int(set_index)] = int(
                self._hands[set_index]
            )

    def reload(self):
        for set_index, hand in self.policy._hands.items():
            self._hands[set_index] = hand
            self._touched[set_index] = True


@register_kernel(CounterRandomPolicy)
class CounterRandomKernel(PolicyKernel):
    """Counter-based random: victims are pure hashes of access indices.

    Vectorizes :meth:`CounterRandomPolicy.victim_for` -- the SplitMix64
    draw keyed by ``(seed, access_index)`` -- as whole-array ``uint64``
    arithmetic.  Because the draw ignores every other access, chunk
    reordering is invisible and parity with the scalar reference is
    exact (unlike the sequential-stream ``RandomPolicy``).
    """

    def select_victims(self, sets, idx):
        draws = splitmix64_array(
            idx.astype(np.uint64)
            + np.uint64(self.policy._seed_mix)
        )
        ways = np.uint64(self.cache.geometry.associativity)
        return (draws % ways).astype(np.int64)


@register_kernel(SlruPolicy)
class SlruKernel(PolicyKernel):
    """SLRU: probation/protected segments in ``meta``."""

    def on_hits(self, sets, ways, idx, scores):
        cache = self.cache
        cache.stamp[sets, ways] = idx.astype(np.float64)
        n_ways = cache.geometry.associativity
        cap = self.policy._protected_cap(n_ways)
        if cap == 0:
            return
        promote = cache.meta[sets, ways] != 1.0
        if not promote.any():
            return
        p_sets = sets[promote]
        p_ways = ways[promote]
        meta_rows = cache.meta[p_sets]  # (m, W)
        protected = meta_rows == 1.0
        over_cap = protected.sum(axis=1) >= cap
        if over_cap.any():
            # Demote the LRU protected block of each over-cap set.
            stamp_rows = cache.stamp[p_sets[over_cap]]
            masked = np.where(protected[over_cap], stamp_rows, np.inf)
            demoted = _argmin_rows(masked)
            cache.meta[p_sets[over_cap], demoted] = 0.0
        cache.meta[p_sets, p_ways] = 1.0

    def select_victims(self, sets, idx):
        cache = self.cache
        meta_rows = cache.meta[sets]
        stamp_rows = cache.stamp[sets]
        probation = meta_rows == 0.0
        has_probation = probation.any(axis=1)
        masked = np.where(probation, stamp_rows, np.inf)
        return np.where(
            has_probation,
            _argmin_rows(masked),
            _argmin_rows(stamp_rows),
        )


@register_kernel(TwoQPolicy)
class TwoQKernel(PolicyKernel):
    """2Q: A1in/Am segments in ``meta``, FIFO within A1in."""

    def on_hits(self, sets, ways, idx, scores):
        self.cache.stamp[sets, ways] = idx.astype(np.float64)
        self.cache.meta[sets, ways] = 1.0

    def select_victims(self, sets, idx):
        cache = self.cache
        meta_rows = cache.meta[sets]
        stamp_rows = cache.stamp[sets]
        a1 = meta_rows == 0.0
        has_a1 = a1.any(axis=1)
        masked = np.where(a1, stamp_rows, np.inf)
        return np.where(
            has_a1, _argmin_rows(masked), _argmin_rows(stamp_rows)
        )


@register_kernel(BeladyPolicy)
class BeladyKernel(PolicyKernel):
    """Belady/OPT: next-use distances in ``meta``, evict the farthest."""

    def on_hits(self, sets, ways, idx, scores):
        self.cache.stamp[sets, ways] = idx.astype(np.float64)
        self.cache.meta[sets, ways] = self.policy._next_use[idx]

    def fill_meta(self, pages, scores, idx):
        return self.policy._next_use[idx].astype(np.float64)

    def select_victims(self, sets, idx):
        return _argmax_rows(self.cache.meta[sets])


@register_kernel(ScoreBasedPolicy)
class ScoreKernel(PolicyKernel):
    """Score-driven admission/eviction (GMM, LSTM, any scorer).

    Covers :class:`ScoreBasedPolicy` and its alias subclasses
    (``GmmCachePolicy``, ``LstmCachePolicy``); the combined-view
    :class:`~repro.core.policy.CombinedIcgmmPolicy` overrides
    ``fill_meta`` and therefore registers its own kernel (see
    :class:`CombinedScoreKernel`).
    """

    def __init__(self, policy, cache):
        super().__init__(policy, cache)
        self.admits_all = not policy.admission

    def on_hits(self, sets, ways, idx, scores):
        self.cache.stamp[sets, ways] = idx.astype(np.float64)
        if self.policy.update_score_on_hit:
            self.cache.meta[sets, ways] = scores

    def admit(self, pages, scores, is_write, idx):
        if not self.policy.admission:
            return np.ones(pages.shape[0], dtype=bool)
        return scores >= self.policy.threshold

    def fill_meta(self, pages, scores, idx):
        return scores.astype(np.float64)

    def select_victims(self, sets, idx):
        if self.policy.eviction:
            return _argmin_rows(self.cache.meta[sets])
        return _argmin_rows(self.cache.stamp[sets])

    def list_span(self):
        policy = self.policy
        return ListSpan(
            policy.eviction,
            policy.threshold if policy.admission else None,
            policy.update_score_on_hit,
            {},
        )


class CombinedScoreKernel(ScoreKernel):
    """Score kernel whose fill metadata is a per-page marginal score.

    Vectorizes ``CombinedIcgmmPolicy.fill_meta`` (a dict lookup with
    request-score fallback) via binary search over the policy's
    memoised ``sorted_page_scores()`` arrays.  Registered from
    :mod:`repro.core.policy` to avoid an import cycle.
    """

    def fill_meta(self, pages, scores, idx):
        # Sorted on first use, not at construction: the serving loop
        # builds a kernel per plane per chunk while the page map grows
        # every chunk, and its calls rarely reach a vector fill.
        keys, values = self.policy.sorted_page_scores()
        if keys.size == 0:
            return scores.astype(np.float64)
        positions = np.searchsorted(keys, pages)
        positions_clipped = np.minimum(positions, keys.size - 1)
        found = keys[positions_clipped] == pages
        return np.where(
            found, values[positions_clipped], scores
        ).astype(np.float64)

    def list_span(self):
        return super().list_span()._replace(
            fill_scores=self.policy._page_scores
        )


__all__ = [
    "BeladyKernel",
    "ClockKernel",
    "CombinedScoreKernel",
    "CounterRandomKernel",
    "FifoKernel",
    "KERNELS",
    "LfuKernel",
    "ListSpan",
    "LruKernel",
    "PolicyKernel",
    "ScoreKernel",
    "SlruKernel",
    "TwoQKernel",
    "kernel_for",
    "register_kernel",
]
