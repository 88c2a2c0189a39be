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
