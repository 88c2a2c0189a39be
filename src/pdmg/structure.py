"""Expressions, merge/move rules, and derivation trees over item sequences.

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

``seq_to_tree`` reads a polish-order item sequence into the derivation tree
it encodes (head first, then one argument subtree per selector, in feature
order; one move node per licensor above the merges), and ``eval_sequence``
folds the rules over that tree bottom-up.
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
        seen = set()
        for m in self.movers:
            if not m.suffix or m.suffix[0].kind is not FeatureKind.LICENSEE:
                raise FeatureMismatch(f"mover chain {m} must lead with a licensee")
            name = m.suffix[0].name
            if name in seen:
                raise SmcViolation(f"two movers lead with -{name}")
            seen.add(name)

    def __str__(self) -> str:
        parts = [str(self.head)] + [str(m) for m in self.movers]
        return "[" + ", ".join(parts) + "]"


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
    head = Chain(t.head.words + s.head.words, s.head.suffix[1:])
    return Expression(head, t.movers + s.movers)


def merge_right(s: Expression, t: Expression) -> Expression:
    """=x on s against a completed category-x argument t; t's words go right."""
    f = _leading_selector(s)
    if f.kind is not FeatureKind.SEL_RIGHT:
        raise FeatureMismatch(f"merge_right needs a right selector, got {f}")
    _check_plain_argument(f, t)
    head = Chain(s.head.words + t.head.words, s.head.suffix[1:])
    return Expression(head, s.movers + t.movers)


def merge_mover(s: Expression, t: Expression) -> Expression:
    """Selector on s against a t that still has licensees: t becomes a mover."""
    f = _leading_selector(s)
    suf = t.head.suffix
    if len(suf) < 2 or suf[0] != Feature(FeatureKind.CAT, f.name):
        raise FeatureMismatch(
            f"merge_mover needs category {f.name} plus a licensee remainder, "
            f"got {t.head}")
    head = Chain(s.head.words, s.head.suffix[1:])
    new_mover = Chain(t.head.words, suf[1:])
    return Expression(head, s.movers + (new_mover,) + t.movers)


def _leading_licensor(s: Expression) -> Feature:
    if not s.head.suffix or s.head.suffix[0].kind is not FeatureKind.LICENSOR:
        raise FeatureMismatch(f"head of {s} does not lead with a licensor")
    return s.head.suffix[0]


def _find_mover(s: Expression, name: str) -> int:
    for i, m in enumerate(s.movers):
        if m.suffix[0].name == name:
            return i
    raise FeatureMismatch(f"no mover leads with -{name}")


def move_final(s: Expression) -> Expression:
    """+y against a mover that is exactly -y; the mover's words land left."""
    f = _leading_licensor(s)
    i = _find_mover(s, f.name)
    m = s.movers[i]
    if len(m.suffix) != 1:
        raise FeatureMismatch(
            f"mover {m} keeps features after -{f.name}; use move_again")
    head = Chain(m.words + s.head.words, s.head.suffix[1:])
    return Expression(head, s.movers[:i] + s.movers[i + 1:])


def move_again(s: Expression) -> Expression:
    """+y against a mover with a remainder after -y; the mover stays put."""
    f = _leading_licensor(s)
    i = _find_mover(s, f.name)
    m = s.movers[i]
    if len(m.suffix) == 1:
        raise FeatureMismatch(
            f"mover {m} has no remainder after -{f.name}; use move_final")
    head = Chain(s.head.words, s.head.suffix[1:])
    kept = Chain(m.words, m.suffix[1:])
    return Expression(head, s.movers[:i] + (kept,) + s.movers[i + 1:])


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
    if not seq:
        raise ArityError("empty item sequence")
    waiting: list[tuple[Node, Iterator[Feature]]] = []
    for i, item in enumerate(seq):
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
                if i + 1 < len(seq):
                    raise ArityError(f"{len(seq) - i - 1} items left over "
                                     "after the root's arguments")
                return node
            head, feats = waiting.pop()
            node = MergeNode(head, node)
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


def eval_tree(node: Node) -> Expression:
    """Fold the rules over a derivation tree bottom-up."""
    values: list[Expression] = []
    for n in _postorder(node):
        if isinstance(n, Leaf):
            values.append(leaf_expression(n.item))
        elif isinstance(n, MergeNode):
            t = values.pop()
            s = values.pop()
            f = _leading_selector(s)
            suf = t.head.suffix
            if not suf or suf[0] != Feature(FeatureKind.CAT, f.name):
                raise FeatureMismatch(
                    f"selector {f} against argument head {t.head}")
            rule = (merge_mover if len(suf) > 1 else
                    merge_left if f.kind is FeatureKind.SEL_LEFT else merge_right)
            values.append(rule(s, t))
        else:
            s = values.pop()
            i = _find_mover(s, _leading_licensor(s).name)
            rule = move_final if len(s.movers[i].suffix) == 1 else move_again
            values.append(rule(s))
    return values[0]


def eval_expression(seq: Sequence[LexicalItem]) -> Expression:
    """Build the tree and evaluate it, without the completeness check."""
    return eval_tree(seq_to_tree(seq))


def eval_sequence(seq: Sequence[LexicalItem]) -> str:
    """Evaluate a sequence to its surface string.

    Succeeds iff the result is a single chain whose suffix is exactly the
    derived category: no movers in flight and no unchecked features besides
    it.  Raises ArityError/FeatureMismatch/SmcViolation from tree building
    and rule application, and EvalError for an incomplete result.
    """
    return _completed(eval_expression(seq)).head.text()


def _completed(e: Expression) -> Expression:
    """``e`` itself, if it is one chain whose suffix is exactly a category."""
    if e.movers:
        raise EvalError(f"movers never landed: {e}")
    if len(e.head.suffix) != 1 or e.head.suffix[0].kind is not FeatureKind.CAT:
        raise EvalError(f"head features left unchecked: {e}")
    return e


def derived_category(seq: Sequence[LexicalItem]) -> str:
    """Category of the completed derivation (eval_sequence must succeed)."""
    return _completed(eval_expression(seq)).head.suffix[0].name


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
