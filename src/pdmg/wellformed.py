"""Cursor-based well-formedness check for item sequences.

A derivation is written as a flat sequence of lexical items in polish order:
the head item first, then the subsequence deriving its first selector's
argument, then the second selector's, and so on.  Whether such a sequence is
the traversal of some convergent derivation can be decided by a single
cursor walking the sequence and deleting features as they check:

1. Leading selector: move right to the next item not reduced to bare
   licensees (such items are checked-out movers waiting for a licensor;
   they are transparent here just as they are in rule 2b's search).
2. Leading category:
   a. on the root item (leftmost at start) delete it unconditionally;
   b. otherwise find the nearest item to the left that still carries a
      category feature anywhere in its remainder (items reduced to bare
      licensees, or to nothing, are skipped); if that item's leading
      feature is a selector for this category, delete both features and
      continue from the current item;
   c. otherwise the sequence is ill-formed.
3. Leading licensee: move one item left.
4. Leading licensor +y: look at the movers in flight, the items to the
   right up to the first one that still carries a category feature;
   a. none of them leads with the licensee -y: ill-formed;
   b. two of them lead with -y: ill-formed by the shortest-move
      constraint (SMC), which lets at most one mover per licensee be
      in flight;
   c. exactly one does: delete both features and continue from the
      current item.
5. No features left: delete the item and continue from its left neighbour,
   or its right neighbour if there is none.

The sequence is well-formed iff every item and feature is deleted.  Two
dead ends make the walk total: a leading selector with nothing checkable
to its right, and a leading licensee with no item to its left, both mean
the feature can never check, so they reject.

A traced walk records one tuple per action, tagged with its rule: ``1``,
``2a``, ``2b``, ``3``, ``4c`` and ``5`` for the steps; ``4a`` and ``4b``
for rule 4's rejects; ``2c`` for rule 2c and ``2c0`` for its case with
no category-bearing item left of the cursor; ``1x`` and ``3x`` for the
two dead ends.  ``RULES`` maps each tag to its action and the wording of
its detail, and ``trace_wellformed`` words the records after the walk,
so an untraced walk builds no record and formats nothing.

Features are deleted only from the front, and each item's features come
in the order (selector)* (licensor)* category (licensee)*.  So an item's
state is one int, the index of its first unchecked feature, and each rule
tests it against the item's fixed ``LexicalItem.stages``: before the
category index the item still projects, past it the item is a checked-out
mover leading with a licensee, and at the end of its features it is spent.

The walk ends with no record of where the cursor has been.  Each check or
deletion removes a feature or an item.  Between two of them the cursor
moves left only from an item leading with a licensee (rule 3), and a move
right (rule 1) never lands on such an item, so it makes some left moves,
then some right moves, and then checks, deletes or rejects (a reject by
rule 1, 2c, 3, 4a or 4b ends the walk): it never revisits an item.

Rule 4 needs to search no further than the first item that still
carries a category.  The cursor moves right only by rule 1, past
checked-out movers, or by rule 5 from the leftmost item to its
neighbour, so the items it has visited form a prefix of the live
sequence.  An item leads with a licensee only once its category has
checked, which takes the cursor on it (rule 2).  So every live item
right of the cursor that still carries a category is unvisited, as is
everything after it: each leads with a selector, licensor or category,
never a licensee.  A licensor's mover, and any second mover that would
break the SMC, lies before the first such item.  When the sequence
spells a tree, the items before it are what remains of the licensor's
own subtree: its projection's movers in flight, the ones the SMC
constrains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError
from .lexicon import LexicalItem

# Action tags recorded in traces.
SKIP_RIGHT = "skip-right"          # rule 1
ROOT_CATEGORY = "root-category"    # rule 2a
CATEGORY_MATCH = "category-match"  # rule 2b
LICENSEE_LEFT = "licensee-left"    # rule 3
LICENSOR_MATCH = "licensor-match"  # rule 4c
DELETE_ITEM = "delete-item"        # rule 5
ACCEPT = "accept"
REJECT = "reject"


@dataclass(frozen=True)
class TraceStep:
    """One cursor action.

    ``position`` is the cursor item's index in the original sequence (-1 on
    the terminal accept step).
    """

    position: int
    action: str
    detail: str


@dataclass(frozen=True)
class CursorTrace:
    steps: tuple[TraceStep, ...]
    verdict: bool


# Each rule tag the walk records, with its action and the wording of its
# detail: {f} is the cursor item's feature, {g} its partner's, {0} the
# cursor item's spelling and {1}, {2} its partners'.
RULES = {
    "1": (SKIP_RIGHT, "selector {f}; move right"),
    "1x": (REJECT, "rule 1: selector {f} with no checkable item to the right"),
    "2a": (ROOT_CATEGORY, "root category {f} deleted"),
    "2b": (CATEGORY_MATCH, "category {f} checked by {g} on {1}"),
    "2c": (REJECT, "rule 2c: nearest category-bearing item {1} leads with "
           "{g}, not a selector for {f.name}"),
    "2c0": (REJECT, "rule 2c: no item to the left still carries a category "
            "to project over {f}"),
    "3": (LICENSEE_LEFT, "licensee {f}; move left"),
    "3x": (REJECT, "rule 3: licensee {f} with no item to the left"),
    "4a": (REJECT, "rule 4a: no item to the right leads with -{f.name}"),
    "4b": (REJECT, "rule 4b: {1} and {2} both lead with -{f.name} "
           "(shortest-move constraint)"),
    "4c": (LICENSOR_MATCH, "licensor {f} checked against -{f.name} on {1}"),
    "5": (DELETE_ITEM, "{0} is out of features; deleted"),
}


def is_wellformed(seq: Sequence[LexicalItem]) -> bool:
    """True iff ``seq`` is the polish traversal of a convergent derivation.

    An empty ``seq`` raises ArityError, as ``eval_sequence`` does."""
    return _run(seq, None)


def trace_wellformed(seq: Sequence[LexicalItem]) -> CursorTrace:
    """Like ``is_wellformed`` but records every cursor action.

    A true verdict's trace ends with an ``accept`` step on the empty
    sequence; a false verdict's trace ends with a ``reject`` step naming
    the failing rule.
    """
    records: list[tuple] = []
    verdict = _run(seq, records)
    steps = []
    for cur, tag, f, g, *partners in records:
        action, detail = RULES[tag]
        names = [seq[j].phon_display for j in (cur, *partners)]
        steps.append(TraceStep(cur, action, detail.format(*names, f=f, g=g)))
    if verdict:
        steps.append(TraceStep(-1, ACCEPT, "empty sequence"))
    return CursorTrace(steps=tuple(steps), verdict=verdict)


def _run(seq: Sequence[LexicalItem], steps: list[tuple] | None) -> bool:
    """The verdict; unless ``steps`` is None, appends to it one record
    ``(cursor, rule tag, feature, partner's feature, *partner items)`` per
    action, the items as indices into ``seq``."""
    if not seq:
        raise ArityError("empty item sequence")
    n = len(seq)
    feats = [it.features for it in seq]
    sel, cat = zip(*[it.stages for it in seq])
    end = [len(fs) for fs in feats]
    at = [0] * n  # index of each item's first unchecked feature
    left = list(range(-1, n - 1))
    right = [*range(1, n), -1]
    cur = 0

    while True:
        i = at[cur]

        if i == end[cur]:
            # rule 5: delete the item, move left if possible, else right;
            # the sequence is empty once an item with no neighbour goes.
            l, r = left[cur], right[cur]
            if l != -1:
                right[l] = r
            if r != -1:
                left[r] = l
            if steps is not None:
                steps.append((cur, "5", None, None))
            if l == r == -1:
                return True
            cur = l if l != -1 else r
            continue

        f = feats[cur][i]

        if i < sel[cur]:
            # rule 1; checked-out movers (bare licensees) are transparent,
            # exactly as they are for the leftward search in rule 2b.
            r = right[cur]
            while r != -1 and cat[r] < at[r] < end[r]:
                r = right[r]
            if steps is not None:
                steps.append((cur, "1x" if r == -1 else "1", f, None))
            if r == -1:
                return False
            cur = r

        elif i == cat[cur]:
            # rule 2
            if cur == 0:
                at[0] += 1
                if steps is not None:
                    steps.append((0, "2a", f, None))
                continue
            j = left[cur]
            while j != -1 and at[j] > cat[j]:
                j = left[j]
            if j == -1:
                if steps is not None:
                    steps.append((cur, "2c0", f, None))
                return False
            g = feats[j][at[j]]
            ok = at[j] < sel[j] and g.name == f.name
            if steps is not None:
                steps.append((cur, "2b" if ok else "2c", f, g, j))
            if not ok:
                return False
            at[cur] += 1
            at[j] += 1

        elif i > cat[cur]:
            # rule 3
            l = left[cur]
            if steps is not None:
                steps.append((cur, "3x" if l == -1 else "3", f, None))
            if l == -1:
                return False
            cur = l

        else:
            # rule 4: the movers in flight are the checked-out items right
            # of the cursor, up to the first that still bears a category.
            y = f.name
            j = twin = -1
            r = right[cur]
            while r != -1 and at[r] > cat[r]:
                a = at[r]
                if a < end[r] and feats[r][a].name == y:
                    if j != -1:
                        twin = r
                        break
                    j = r
                r = right[r]
            if j == -1 or twin != -1:
                if steps is not None:
                    steps.append((cur, "4a", f, None) if j == -1
                                 else (cur, "4b", f, None, j, twin))
                return False
            at[cur] += 1
            at[j] += 1
            if steps is not None:
                steps.append((cur, "4c", f, None, j))
