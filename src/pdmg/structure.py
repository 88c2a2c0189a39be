"""Expressions, the merge/move rules, and the evaluation of item sequences.

An expression is a head chain plus a list of mover chains.  A chain carries
the words accumulated so far (as a tuple, so covert material concatenates
without space artifacts) and its unchecked feature suffix.  The binary rules
consume a selector on the head of ``s`` against the category of ``t``:

- merge_left  (x=): t's words precede s's; movers are t's then s's.
- merge_right (=x): s's words precede t's; movers are s's then t's.
- merge_mover (either direction): t still has licensees after its category,
  so its words stay on a new mover chain; movers are s's, the new chain,
  then t's.

The unary rules consume a licensor +y against the unique mover leading -y:

- move_final: the mover is exactly -y; its words land in front of the head.
- move_again: the mover keeps a non-empty remainder; nothing lands yet.

Every expression obeys the shortest-move constraint: no two movers share a
leading licensee.  Rule results that would violate it raise SmcViolation.

``eval_sequence`` evaluates a polish-order item sequence in one
left-to-right pass, linear in its length: a stack of light states, each
waiting for the argument of its head's next selector, on which the rules
fire in the post-order of the derivation tree.  A count of selectors
first raises ArityError for a sequence of the wrong length, before any
rule runs.  The public rule functions run the same steps on Expressions.
``seq_to_tree`` reads the sequence into that tree (head first, then one
argument subtree per selector, in feature order; one move node per
licensor above the merges), for rendering and counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import ArityError, EvalError, FeatureMismatch, SmcViolation
from .lexicon import Feature, FeatureKind, LexicalItem


@dataclass(frozen=True)
class Chain:
    words: tuple[str, ...]
    suffix: tuple[Feature, ...]

    def text(self) -> str:
        return " ".join(self.words)

    def __str__(self) -> str:
        feats = " ".join(str(f) for f in self.suffix)
        return f"{self.text() or 'ε'}:{feats}"


@dataclass(frozen=True)
class Expression:
    head: Chain
    movers: tuple[Chain, ...] = ()

    def __post_init__(self):
        _check_movers([(m.words, m.suffix, 0) for m in self.movers])

    def __str__(self) -> str:
        parts = [str(self.head)] + [str(m) for m in self.movers]
        return "[" + ", ".join(parts) + "]"


# --- the rule steps -----------------------------------------------------
#
# The evaluator and the public rule functions below both run these steps on
# a light expression state, the list [words, feats, i, movers]:
#
# - words is a rope: a word, or a tuple of ropes read left to right, so a
#   concatenation is one pair and the words are joined once, at the end;
# - feats[i:] is the head chain's unchecked suffix;
# - movers is a tuple of (words, feats, i) chains in order.
#
# A step's caller has checked the rule's preconditions; the step updates
# the state in place.  Each mover list a step makes passes _check_movers, as
# every Expression's does, unless it is part of a list that already passed.


def _chain(words, feats: tuple[Feature, ...], i: int) -> Chain:
    return Chain(_words(words), feats[i:])


def _words(rope) -> tuple[str, ...]:
    """The words of a rope, left to right."""
    out = []
    stack = [rope]
    while stack:
        r = stack.pop()
        while type(r) is tuple and r:  # descend leftmost, keep the rest
            stack += r[:0:-1]
            r = r[0]
        if type(r) is str:
            out.append(r)
    return tuple(out)


def _check_movers(movers):
    """``movers``, if each leads with a licensee and no two lead with the
    same one (the shortest-move constraint)."""
    seen = set()
    for words, feats, i in movers:
        if i >= len(feats) or feats[i].kind is not FeatureKind.LICENSEE:
            raise FeatureMismatch(
                f"mover chain {_chain(words, feats, i)} must lead with a licensee")
        name = feats[i].name
        if name in seen:
            raise SmcViolation(f"two movers lead with -{name}")
        seen.add(name)
    return movers


def _merge_step(s: list, t: list, left: bool) -> None:
    """Merge ``t``, complete up to its licensees, on the head's selector.
    With licensees left, ``t`` becomes a mover after the head's movers;
    else its words go left or right of the head's, and its movers too."""
    words, feats, j, movers = t
    s[2] += 1
    if j + 1 < len(feats):
        s[3] = _check_movers(s[3] + ((words, feats, j + 1),) + movers)
        return
    s[0] = (words, s[0]) if left else (s[0], words)
    if movers:
        s[3] = (_check_movers(movers + s[3] if left else s[3] + movers)
                if s[3] else movers)


def _move_step(s: list, i: int) -> None:
    """Check the head's licensor against mover ``i``: its words land in
    front of the head if it has no features left, else it moves on."""
    movers = s[3]
    words, feats, j = movers[i]
    s[2] += 1
    if j + 1 == len(feats):
        s[0] = (words, s[0])
        s[3] = movers[:i] + movers[i + 1:]
    else:
        s[3] = _check_movers(movers[:i] + ((words, feats, j + 1),) + movers[i + 1:])


def _find_mover(movers, name: str) -> int:
    for i, (_, feats, j) in enumerate(movers):
        if feats[j].name == name:
            return i
    raise FeatureMismatch(f"no mover leads with -{name}")


def _state(e: Expression) -> list:
    return [e.head.words, e.head.suffix, 0,
            tuple((m.words, m.suffix, 0) for m in e.movers)]


def _expression(state: list) -> Expression:
    words, feats, i, movers = state
    return Expression(_chain(words, feats, i), tuple(_chain(*m) for m in movers))


# --- the public rules, on Expressions -----------------------------------


def _leading_selector(s: Expression) -> Feature:
    if not s.head.suffix or not s.head.suffix[0].is_selector:
        raise FeatureMismatch(f"head of {s} does not lead with a selector")
    return s.head.suffix[0]


def _check_plain_argument(f: Feature, t: Expression) -> None:
    if t.head.suffix != (Feature(FeatureKind.CAT, f.name),):
        raise FeatureMismatch(
            f"argument head must be exactly category {f.name}, got {t.head}")


def merge_left(s: Expression, t: Expression) -> Expression:
    """x= on s against a completed category-x argument t; t's words go left."""
    f = _leading_selector(s)
    if f.kind is not FeatureKind.SEL_LEFT:
        raise FeatureMismatch(f"merge_left needs a left selector, got {f}")
    _check_plain_argument(f, t)
    state = _state(s)
    _merge_step(state, _state(t), left=True)
    return _expression(state)


def merge_right(s: Expression, t: Expression) -> Expression:
    """=x on s against a completed category-x argument t; t's words go right."""
    f = _leading_selector(s)
    if f.kind is not FeatureKind.SEL_RIGHT:
        raise FeatureMismatch(f"merge_right needs a right selector, got {f}")
    _check_plain_argument(f, t)
    state = _state(s)
    _merge_step(state, _state(t), left=False)
    return _expression(state)


def merge_mover(s: Expression, t: Expression) -> Expression:
    """Selector on s against a t that still has licensees: t becomes a mover."""
    f = _leading_selector(s)
    suf = t.head.suffix
    if len(suf) < 2 or suf[0] != Feature(FeatureKind.CAT, f.name):
        raise FeatureMismatch(
            f"merge_mover needs category {f.name} plus a licensee remainder, "
            f"got {t.head}")
    state = _state(s)
    _merge_step(state, _state(t), left=f.kind is FeatureKind.SEL_LEFT)
    return _expression(state)


def _leading_licensor(s: Expression) -> Feature:
    if not s.head.suffix or s.head.suffix[0].kind is not FeatureKind.LICENSOR:
        raise FeatureMismatch(f"head of {s} does not lead with a licensor")
    return s.head.suffix[0]


def _move(s: Expression, final: bool) -> Expression:
    f = _leading_licensor(s)
    state = _state(s)
    i = _find_mover(state[3], f.name)
    m = s.movers[i]
    if final and len(m.suffix) != 1:
        raise FeatureMismatch(
            f"mover {m} keeps features after -{f.name}; use move_again")
    if not final and len(m.suffix) == 1:
        raise FeatureMismatch(
            f"mover {m} has no remainder after -{f.name}; use move_final")
    _move_step(state, i)
    return _expression(state)


def move_final(s: Expression) -> Expression:
    """+y against a mover that is exactly -y; the mover's words land left."""
    return _move(s, final=True)


def move_again(s: Expression) -> Expression:
    """+y against a mover with a remainder after -y; the mover stays put."""
    return _move(s, final=False)


# --- derivation trees ---------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    item: LexicalItem


@dataclass(frozen=True)
class MergeNode:
    head: "Node"  # the projecting side
    arg: "Node"


@dataclass(frozen=True)
class MoveNode:
    child: "Node"


Node = Union[Leaf, MergeNode, MoveNode]


def seq_to_tree(seq: Sequence[LexicalItem]) -> Node:
    """Read a polish-order sequence into its derivation tree.

    The tree shape is fully determined by the items' selector and licensor
    counts; a sequence that runs out of items, or has items left over,
    raises ArityError.  One left-to-right pass: an item waits on a stack
    while its next selector's argument is read, and takes a MoveNode for
    each licensor it reaches.
    """
    _check_arity(seq)
    waiting: list[tuple[Node, Iterator[Feature]]] = []
    for item in seq:
        node: Node = Leaf(item)
        feats = iter(item.features)
        while True:
            f = next(feats, None)
            while f is not None and f.kind is FeatureKind.LICENSOR:
                node = MoveNode(node)
                f = next(feats, None)
            if f is not None and f.is_selector:
                waiting.append((node, feats))
                break
            if not waiting:
                break  # the root, at the last item
            head, feats = waiting.pop()
            node = MergeNode(head, node)
    return node


def _check_arity(seq: Sequence[LexicalItem]) -> None:
    """ArityError unless the root's arguments use up exactly ``seq``."""
    if not seq:
        raise ArityError("empty item sequence")
    slots = 1  # argument positions opened and not yet filled
    for i, item in enumerate(seq):
        if not slots:
            raise ArityError(f"{len(seq) - i} items left over "
                             "after the root's arguments")
        slots += item.stages[0] - 1
    if slots:
        raise ArityError("ran out of items while expanding selectors")


def _postorder(root: Node) -> list[Node]:
    """Every node after its children, the head's subtree before the arg's."""
    out: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, MergeNode):
            stack += (node.head, node.arg)
        elif isinstance(node, MoveNode):
            stack.append(node.child)
    return out[::-1]


def tree_to_seq(node: Node) -> tuple[LexicalItem, ...]:
    """Depth-first leaves; inverse of seq_to_tree."""
    return tuple(n.item for n in _postorder(node) if isinstance(n, Leaf))


def count_nodes(node: Node) -> tuple[int, int, int]:
    """(leaves, merge nodes, move nodes)."""
    kinds = [type(n) for n in _postorder(node)]
    return (kinds.count(Leaf), kinds.count(MergeNode), kinds.count(MoveNode))


def leaf_expression(item: LexicalItem) -> Expression:
    words = (item.phon,) if item.phon else ()
    return Expression(Chain(words, item.features))


def _evaluate(seq: Sequence[LexicalItem]) -> list:
    """The state ``seq``'s derivation ends in, from one left-to-right pass.

    An item's state waits on a stack while the argument of its next
    selector is read.  When that argument reaches its category it is
    merged in, and each licensor the head then reaches is one move.  The
    rules so fire in the post-order of ``seq_to_tree``'s tree, and the
    first rule error is the one a fold over that tree would raise.
    """
    _check_arity(seq)
    waiting: list[tuple[list, int, int]] = []
    for item in seq:
        e = [item.phon or (), item.features, 0, ()]
        s, c = item.stages
        while True:
            if e[2] < s:
                waiting.append((e, s, c))
                break
            while e[2] < c:
                _move_step(e, _find_mover(e[3], e[1][e[2]].name))
            if not waiting:
                break  # the root, at the last item
            t = e
            e, s, c = waiting.pop()
            f = e[1][e[2]]
            feats, j = t[1], t[2]
            if feats[j].name != f.name:  # t stands at its category
                raise FeatureMismatch(
                    f"selector {f} against argument head {_chain(*t[:3])}")
            _merge_step(e, t, left=f.kind is FeatureKind.SEL_LEFT)
    return e


def eval_tree(node: Node) -> Expression:
    """Evaluate a derivation tree: the one pass over its leaves."""
    return _expression(_evaluate(tree_to_seq(node)))


def eval_expression(seq: Sequence[LexicalItem]) -> Expression:
    """Evaluate a sequence, without the completeness check."""
    return _expression(_evaluate(seq))


def eval_sequence(seq: Sequence[LexicalItem]) -> str:
    """Evaluate a sequence to its surface string.

    Succeeds iff the result is a single chain whose suffix is exactly the
    derived category: no movers in flight and no unchecked features besides
    it.  Raises ArityError for a sequence of the wrong length,
    FeatureMismatch/SmcViolation from rule application, and EvalError for
    an incomplete result.
    """
    return _derive(seq)[1]


def derived_category(seq: Sequence[LexicalItem]) -> str:
    """Category of the completed derivation (eval_sequence must succeed)."""
    return _derive(seq)[0]


def _derive(seq: Sequence[LexicalItem]) -> tuple[str, str]:
    """(category, surface string) of ``seq``, if its result is one chain
    whose suffix is exactly a category; EvalError otherwise."""
    state = _evaluate(seq)
    words, feats, i, movers = state
    if movers:
        raise EvalError(f"movers never landed: {_expression(state)}")
    if len(feats) - i != 1 or feats[i].kind is not FeatureKind.CAT:
        raise EvalError(f"head features left unchecked: {_expression(state)}")
    return feats[i].name, " ".join(_words(words))


def render_tree(node: Node) -> str:
    """Compact single-line bracketing of a derivation tree."""
    parts: list[str] = []
    stack: list[Node | str] = [node]
    while stack:
        top = stack.pop()
        if isinstance(top, MergeNode):
            stack += ("]", top.arg, " ", top.head, "[merge ")
        elif isinstance(top, MoveNode):
            stack += ("]", top.child, "[move ")
        else:
            parts.append(top if isinstance(top, str) else top.item.phon_display)
    return "".join(parts)
