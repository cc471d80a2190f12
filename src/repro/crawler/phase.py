"""One resumable loop for every crawl phase.

The paper's crawl ran in phases for months, so surviving restarts was a
hard requirement.  Every phase here walks a list of items (ID windows,
accounts, apps, groups), sends each item's API calls through
:meth:`~repro.crawler.session.CrawlSession.get_many` and parses the
payloads.  This module owns the rest:

- resume: the checkpoint's cursor and stashed harvest, with a warning
  when a cursor has lost its harvest;
- windows of calls that never cross a checkpoint boundary, so every
  boundary is saved whatever became of the item before it;
- triage of an error that escapes the retry policy: a phase's
  non-event (a private profile, an app without achievements) skips the
  item; :class:`~repro.crawler.retry.RetriesExhausted` snapshots and
  raises or, under graceful degradation (``skip_failed``), logs the
  item in the checkpoint and skips it; anything else raises;
- the final snapshot that marks the phase done, so a rerun replays the
  stash instead of crawling again.

A phase's harvest is its stash: a dict of lists and counters that
``harvest`` appends to and that is saved with the cursor in one
atomic write, so cursor and data never diverge.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted
from repro.crawler.session import CrawlSession

__all__ = ["CHECKPOINT_EVERY", "resume", "run_phase"]

#: Items between checkpoint saves (the detail phase sets its own).
CHECKPOINT_EVERY = 500

#: API calls per ``get_many`` window.  A window's payloads stay alive
#: until it is parsed, and bigger windows run slower: an in-process
#: details crawl of 8k accounts took ~20 % more CPU at 3,000 calls a
#: window than one account at a time, and the same at ~100.
WINDOW_CALLS = 128


def _copy(state: dict) -> dict:
    """Copy the lists a phase appends to, so a stash never aliases them."""
    return {k: list(v) if isinstance(v, list) else v for k, v in state.items()}


def resume(
    checkpoint: CrawlCheckpoint | None, phase: str, fresh: dict
) -> dict:
    """The phase's stashed harvest, or ``fresh`` when there is none."""
    if checkpoint is None:
        return fresh
    state = checkpoint.unstash(phase)
    if state is not None:
        return _copy(state)
    if checkpoint.cursor(phase) > 0 and not checkpoint.is_done(phase):
        warnings.warn(
            f"{phase} checkpoint has a cursor but no stashed harvest; "
            "items harvested before the restart are lost",
            RuntimeWarning,
            stacklevel=3,
        )
    return fresh


def run_phase(
    session: CrawlSession,
    checkpoint: CrawlCheckpoint | None,
    phase: str,
    items: Sequence,
    requests: Callable[[object], tuple],
    harvest: Callable[[int, object, list[dict]], bool | None],
    *,
    state: dict | None = None,
    every: int = CHECKPOINT_EVERY,
    skip_failed: bool = False,
    non_event: type | tuple[type, ...] = (),
    on_skip: Callable[[Exception], None] | None = None,
    limit: Callable[[int], int] | None = None,
    ident: Callable[[object], int] = int,
    cursor_step: int = 1,
) -> None:
    """Run ``phase`` over ``items``, from the checkpoint's cursor on.

    ``requests(item)`` gives one item's API calls, the same number for
    every item; ``harvest(position, item, payloads)`` commits them all
    at once and returns True when the item completes the phase early.
    A failed item commits nothing, and ``on_skip(error)`` hears of it
    when it is skipped.

    ``state`` is the harvest that :func:`resume` returned; without it
    the phase is not resumable and the checkpoint only logs failures,
    as ``ident(item)``.  ``every`` is the checkpoint cadence in items.
    ``limit(position)`` caps the next window; at 0 the phase pauses
    unfinished.  The stored cursor is ``position * cursor_step``.
    """
    resumable = checkpoint is not None and state is not None
    position = 0
    if resumable:
        if checkpoint.is_done(phase):
            return
        position = checkpoint.cursor(phase) // cursor_step

    def snapshot(done: bool = False) -> None:
        if not resumable:
            return
        checkpoint.set_cursor(phase, position * cursor_step)
        checkpoint.stash(phase, _copy(state))
        if done:
            checkpoint.mark_done(phase)
        checkpoint.save()

    # Windows are sequential-equivalent to one call at a time: same
    # transport order, pacing and retries, and get_many stops at the
    # first escaped error, exactly where a lockstep loop would.
    n_items = len(items)
    while position < n_items:
        per_item = len(requests(items[position]))
        size = min(
            max(1, WINDOW_CALLS // per_item),
            every - position % every,
            n_items - position,
        )
        if limit is not None:
            size = min(size, limit(position))
            if size <= 0:
                snapshot()
                return
        batch = items[position : position + size]
        payloads, error = session.get_many(
            call for item in batch for call in requests(item)
        )
        for i in range(len(payloads) // per_item):
            chunk = payloads[i * per_item : (i + 1) * per_item]
            if harvest(position, batch[i], chunk):
                snapshot(done=True)
                return
            position += 1
        if error is not None:
            if not isinstance(error, non_event):
                if not isinstance(error, RetriesExhausted):
                    raise error
                if not skip_failed:
                    snapshot()  # resume retries this item
                    raise error
                if checkpoint is not None:
                    failed = batch[len(payloads) // per_item]
                    checkpoint.record_failure(phase, ident(failed))
                if session.obs is not None:
                    session.obs.counter(
                        "crawler_skipped",
                        "Identifiers skipped after persistent failures",
                        ("phase",),
                    ).inc(phase=phase)
            if on_skip is not None:
                on_skip(error)
            position += 1
        if position % every == 0 and position < n_items:
            snapshot()
    snapshot(done=True)
