from __future__ import annotations

import random
from pathlib import Path

import pytest

from pdmg import Lexicon, load_lexicon, parse_lexicon

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def whq() -> Lexicon:
    return load_lexicon(str(DATA / "whq.lex"))


@pytest.fixture(scope="session")
def move2() -> Lexicon:
    return load_lexicon(str(DATA / "move2.lex"))


@pytest.fixture(scope="session")
def ambig() -> Lexicon:
    return load_lexicon(str(DATA / "ambig.lex"))


@pytest.fixture(scope="session")
def chain() -> Lexicon:
    return load_lexicon(str(DATA / "chain.lex"))


@pytest.fixture(scope="session")
def symmetric() -> Lexicon:
    return load_lexicon(str(DATA / "symmetric.lex"))


@pytest.fixture(scope="session")
def whq_items(whq):
    """The five items as (what, you, see, did, eps)."""
    return (whq.item(0, 0), whq.item(0, 1), whq.item(1, 0),
            whq.item(2, 0), whq.item(3, 0))


@pytest.fixture(scope="session")
def whq_seq(whq_items):
    """The walkthrough sequence deriving "what did you see"."""
    what, you, see, did, eps = whq_items
    return (eps, did, see, you, what)


def data_path(name: str) -> str:
    return str(DATA / name)


# The shortest-move counterexample: in "what did lee knows who saw" both
# wh-words are in flight in the embedded clause.
SMC_WH_LEXICON = (
    "what :: d -wh\nwho :: d -wh\nkim :: d\nlee :: d\nsaw :: =d d= v\n"
    "knows :: =c d= v\ndid :: =v t\nε :: =v t\nε :: =t +wh c\n")
SMC_WH_REFS = ("ε@3.0 did@2.0 knows@1.1 ε@3.0 ε@2.1 saw@1.0 who@0.1 what@0.0 "
               "lee@0.3").split()


# An α entry just above 2**-1024 (about 5.56e-309) on an item that each
# sentence uses twice: its log t* times that count overflows in the e-step.
OVERFLOW_LEXICON = "a :: x\nc :: x\nb :: =x =x y\n"
OVERFLOW_ALPHA = {"x": [6e-309, 1.0], "y": [1.0]}


def random_lexicon(rng: random.Random) -> Lexicon:
    """3-7 items over categories a-c and licensees f, g; ε items are covert."""
    cats, lics = "abc"[:rng.randint(2, 3)], "fg"[:rng.randint(0, 2)]
    lines = set()
    for _ in range(rng.randint(3, 7)):
        feats = [rng.choice(("={}", "{}=")).format(rng.choice(cats))
                 for _ in range(rng.randint(0, 2))]
        feats += ["+" + y for y in rng.sample(lics, rng.randint(0, min(1, len(lics))))]
        feats.append(rng.choice(cats))
        feats += ["-" + y for y in rng.sample(lics, rng.randint(0, len(lics)))]
        lines.add(f"{rng.choice('pqrε')} :: {' '.join(feats)}")
    return parse_lexicon("\n".join(sorted(lines)) + "\n")


def rich_lexicon(rng: random.Random) -> Lexicon:
    """4-8 items over categories a-d and licensees f-h, each with up to 3
    selectors, 2 licensors (possibly the same twice) and 3 distinct
    licensees, so that several movers are often in flight at one licensor;
    ε items are covert."""
    cats, lics = "abcd"[:rng.randint(2, 4)], "fgh"[:rng.randint(1, 3)]
    lines = set()
    for _ in range(rng.randint(4, 8)):
        feats = [rng.choice(("={}", "{}=")).format(rng.choice(cats))
                 for _ in range(rng.randint(0, 3))]
        feats += ["+" + rng.choice(lics) for _ in range(rng.randint(0, 2))]
        feats.append(rng.choice(cats))
        feats += ["-" + y for y in rng.sample(lics, rng.randint(0, len(lics)))]
        lines.add(f"{rng.choice('pqrε')} :: {' '.join(feats)}")
    return parse_lexicon("\n".join(sorted(lines)) + "\n")


def _sel(rng: random.Random, cat: str) -> str:
    return rng.choice(("={}", "{}=")).format(cat)


def _aimed(rng: random.Random, lines: list[str]) -> Lexicon:
    """The forced ``lines``, spelled at random from p-s (ε is covert), plus
    at most one ``rich_lexicon``-style item over their categories."""
    cats = sorted({f for line in lines for f in line.split()
                   if f[0] not in "=+-" and f[-1] != "="})
    extra = [" ".join([_sel(rng, rng.choice(cats)) for _ in range(rng.randint(0, 2))]
                      + [rng.choice(cats)]) for _ in range(rng.randint(0, 1))]
    return parse_lexicon("".join(f"{rng.choice('pqrsε')} :: {feats}\n"
                                 for feats in dict.fromkeys(lines + extra)))


def twin_mover_lexicon(rng: random.Random) -> Lexicon:
    """A head taking two arguments that can both lead with one licensee
    -y, so that two movers can be in flight at its licensor +y: the
    shortest-move constraint's case (the checker's rule 4b)."""
    y, z = rng.sample("fgh", 2)
    lics = rng.choice((f"+{y}", f"+{y} +{y}", f"+{z} +{y}", f"+{y} +{z}"))
    return _aimed(rng, [
        f"{_sel(rng, 'a')} {_sel(rng, 'b')} {lics} t",
        f"a -{y}", "a", f"b -{y}", "b", f"b -{z}", f"a -{z} -{y}",
        rng.choice(("=t c", f"=t +{z} c", f"=t +{y} c"))])


def embedded_mover_lexicon(rng: random.Random) -> Lexicon:
    """Clausal embedding with a mover in flight: a verb selects a clause e
    whose subtree holds a -y mover that lands above the embedding verb, as
    in "what did kim say lee saw", possibly through an intermediate
    landing site at the embedded clause's own licensor."""
    y, z = rng.sample("fgh", 2)
    return _aimed(rng, [
        f"d -{y}", "d", rng.choice((f"d -{y} -{y}", f"d -{z}", f"d -{z} -{y}")),
        f"{_sel(rng, 'd')} {_sel(rng, 'd')} v", f"{_sel(rng, 'e')} {_sel(rng, 'd')} v",
        "=v t", "=t e", rng.choice(("=t e", f"=t +{y} e", f"=t +{z} e")),
        rng.choice((f"=t +{y} c", f"=t +{z} +{y} c", f"=t +{y} +{z} c"))])


def remnant_lexicon(rng: random.Random) -> Lexicon:
    """Remnant movement: an object -k scrambles out of a phrase that then
    moves by -f with what is left of it (``chain.lex`` moves such a phrase
    whole); the object sometimes moves in two steps, as ``move2.lex``'s
    does."""
    k, f, q = rng.sample("fgh", 3)
    return _aimed(rng, [
        f"d -{k}", "d", rng.choice((f"d -{k} -{q}", f"n -{k}")),
        f"{_sel(rng, 'n')} d", f"{_sel(rng, 'd')} v -{f}", f"{_sel(rng, 'd')} v",
        rng.choice((f"=v +{k} x", f"=v +{k} +{q} x", "=v x")),
        rng.choice((f"=x +{f} c", f"=x +{f} +{q} c", f"=x +{q} +{f} c")), "=x c"])


def top_down_proposals(lex: Lexicon, rng: random.Random, count: int,
                       max_items: int = 12, start: str | None = None):
    """Up to ``count`` sequences, each expanding ``start`` or else a root
    category top-down with uniformly chosen items, as the sampler proposes;
    an expansion that reaches a category with no items or passes
    ``max_items`` is dropped."""
    starts = [start] if start else sorted(lex.root_categories)
    for _ in range(count if starts else 0):
        seq, todo = [], [rng.choice(starts)]
        while todo and len(seq) < max_items and lex.has_category(todo[-1]):
            item = rng.choice(lex.items_of_category(todo.pop()))
            seq.append(item)
            todo += [f.name for f in reversed(item.selectors)]
        if not todo:
            yield tuple(seq)
