"""Policy hooks as data, for the exact list loop of the simulator.

A policy whose four scalar hooks (``on_hit``, ``admit``,
``fill_meta``, ``select_victim``) reduce to a handful of facts --
which plane ``select_victim`` takes the first argmin of, the
admission cut and whether ``fill_meta`` stores the fill score --
declares them as a :class:`ListSpan`, and
:func:`repro.cache.simulate_fast.simulate_fast` then runs the exact
list loop :func:`repro.cache.simulate_fast._list_span` instead of
calling the hooks once per access.  :class:`LruPolicy` and
:class:`ScoreBasedPolicy` (with its GMM and LSTM aliases) declare one:
all four Fig. 6 strategies.  Every other policy runs the reference
loop.  ``tests/cache/test_list_span.py`` checks the loop against the
reference span for every declaration.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.gmm_policy import ScoreBasedPolicy
from repro.cache.policies.lru import LruPolicy


class ListSpan(NamedTuple):
    """A policy's scalar hooks as data, for the exact list loop.

    Each field restates one hook of the declaring policy; ``on_hit``
    is the base recency refresh (the hit way's stamp) for all of them.
    """

    #: ``select_victim`` is the first argmin of the set's ``meta`` row
    #: when True, of its ``stamp`` row when False.
    evict_meta: bool
    #: ``admit`` is ``score >= threshold``; ``None`` admits every miss.
    threshold: float | None
    #: ``fill_meta`` returns the fill score (the replay's
    #: ``fill_scores``, else the request score) when True, ``0.0``
    #: when False.
    fill_scores: bool


def _lru_list_span(policy: LruPolicy) -> ListSpan:
    """LRU: base recency refresh, evict the oldest stamp."""
    return ListSpan(False, None, False)


def _score_list_span(policy: ScoreBasedPolicy) -> ListSpan:
    """Score-driven admission/eviction (GMM, LSTM, any scorer)."""
    return ListSpan(
        policy.eviction,
        policy.threshold if policy.admission else None,
        True,
    )


#: Declaring policy class -> the function that builds an instance's
#: :class:`ListSpan`.
_DECLARATIONS: dict[
    type[ReplacementPolicy], Callable[[ReplacementPolicy], ListSpan]
] = {LruPolicy: _lru_list_span, ScoreBasedPolicy: _score_list_span}

#: The scalar hooks a declaration restates; a subclass overriding any
#: of them relative to its declaring class gets no declaration.
_HOOKS = ("on_hit", "admit", "fill_meta", "select_victim")


def list_span_for(policy: ReplacementPolicy) -> ListSpan | None:
    """The policy's :class:`ListSpan`, or None when it runs the
    reference loop.

    Walks the policy's MRO for the most specific declaring class,
    then verifies the concrete class does not override any scalar
    hook *below* it (a subclass with custom scalar behaviour runs the
    exact reference loop instead of a declaration that no longer
    matches it).
    """
    for declaring in type(policy).__mro__:
        build = _DECLARATIONS.get(declaring)
        if build is not None:
            break
    else:
        return None
    for hook in _HOOKS:
        if getattr(type(policy), hook) is not getattr(declaring, hook):
            return None
    return build(policy)


__all__ = ["ListSpan", "list_span_for"]
