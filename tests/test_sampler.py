"""The sampler against the ``Generator.choice`` proposer it replaced.

``sample_derivation`` draws each node by bisecting a cumulative table on
one ``rng.random()``.  It must make exactly the draws of
``oracle.sample_reference``, which calls ``rng.choice`` at every node:
the same sequences and rejection counts, the same errors, and a
generator left at the same point of its stream.
"""

import math
import random

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

import oracle
import pdmg
from conftest import DATA, data_path, random_lexicon
from pdmg import (InvalidModel, SampleConfig, ones_alpha, sample_derivation,
                  sample_theta, uniform_theta, validate_theta)
from pdmg.cli import main as cli_main
from pdmg.model import _cumulative_tables

FIXTURES = sorted(p.name for p in DATA.glob("*.lex"))
DRAWS = 40


def _zeroed_theta(lex):
    """sample_theta with the first entry of every multi-item row set to 0."""
    theta = sample_theta(lex, ones_alpha(lex), seed=17)
    for cat, row in theta.items():
        if len(row) > 1:
            rest = math.fsum(row[1:])
            theta[cat] = [0.0] + [v / rest for v in row[1:]]
    return theta


THETAS = {
    "uniform": uniform_theta,
    "dirichlet": lambda lex: sample_theta(lex, ones_alpha(lex), seed=5),
    "zeros": _zeroed_theta,
}


def _outcome(sampler, lex, theta, cfg, rng):
    try:
        seq, rejected = sampler(lex, theta, cfg, rng)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return tuple(it.item_id for it in seq), rejected


def _assert_same_draws(lex, theta, cfg, seed, draws=DRAWS):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got = _outcome(sample_derivation, lex, theta, cfg, fast)
        want = _outcome(oracle.sample_reference, lex, theta, cfg, slow)
        assert got == want
        assert fast.random() == slow.random()
        if isinstance(got[0], type):
            break


@pytest.mark.parametrize("theta_kind", sorted(THETAS))
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_draws_replay_choice(name, theta_kind):
    lex = pdmg.load_lexicon(data_path(name))
    theta = THETAS[theta_kind](lex)
    # Every category: the non-root ones compare their up-front error.
    for start in lex.categories:
        cfg = SampleConfig(start=start, max_rejections=50)
        for seed in range(4):
            _assert_same_draws(lex, theta, cfg, seed)


@pytest.mark.parametrize("text, theta, cfg", [
    # the depth cap, reached on some draws and not on others
    ("ε :: =c c\na :: c\n", {"c": [0.6, 0.4]},
     SampleConfig(start="c", max_depth=6, max_rejections=20)),
    # a head selecting a category that has no items
    ("b :: =x c\nd :: c\n", {"c": [0.5, 0.5]},
     SampleConfig(start="c", max_rejections=20)),
    # a row off by less than 1e-12 samples, through the table's division
    ("p :: c\nq :: c\nr :: c\n", {"c": [0.2, 0.3, 0.5 + 1e-13]},
     SampleConfig(start="c")),
])
def test_caps_and_dead_categories_replay_choice(text, theta, cfg):
    lex = pdmg.parse_lexicon(text)
    for seed in range(4):
        _assert_same_draws(lex, theta, cfg, seed)


def test_random_lexicons_replay_choice():
    rng = random.Random(10)
    for _ in range(40):
        lex = random_lexicon(rng)
        theta = sample_theta(lex, ones_alpha(lex), seed=rng.randrange(1000))
        for start in sorted(lex.root_categories):
            cfg = SampleConfig(start=start, max_depth=8, max_rejections=30)
            _assert_same_draws(lex, theta, cfg, rng.randrange(1000), draws=10)


def _random_row(rng: random.Random) -> list[float]:
    n = rng.randint(1, 8)
    kind = rng.choice(("uniform", "zeros", "off", "plain"))
    if kind == "uniform":
        return [1.0 / n] * n
    row = [rng.random() for _ in range(n)]
    if kind == "zeros":
        row = [v if rng.random() < 0.5 else 0.0 for v in row]
    row[rng.randrange(n)] += 0.1  # keep the sum positive
    total = math.fsum(row)
    row = [v / total for v in row]
    if kind == "off":  # within 1e-12, so the table's division shows
        row[-1] += rng.choice((-1, 1)) * 1e-13
    return row


def _refused(call):
    with pytest.raises(InvalidModel) as info:
        call()
    return str(info.value)


def test_one_node_draws_replay_choice():
    lexicons = [pdmg.parse_lexicon("".join(f"w{i} :: c\n" for i in range(n)))
                for n in range(1, 9)]
    rng = random.Random(3)
    for _ in range(300):
        row = _random_row(rng)
        lex = lexicons[len(row) - 1]
        cdf = np.cumsum(row)
        cdf /= cdf[-1]
        assert _cumulative_tables(lex, {"c": row})["c"][1] == cdf.tolist()
        seed = rng.randrange(2**32)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        cfg = SampleConfig(start="c")
        got = [sample_derivation(lex, {"c": row}, cfg, fast)[0][0].item_index
               for _ in range(100)]
        assert got == [int(slow.choice(len(row), p=row)) for _ in range(100)]
        assert fast.random() == slow.random()
        # Generator.choice takes a row off by 1e-9; the sampler does not.
        off = {"c": row[:-1] + [row[-1] + 1e-9]}
        assert _refused(lambda: sample_derivation(lex, off, cfg, fast)) == \
            _refused(lambda: validate_theta(lex, off))


def test_cli_stream_is_the_reference_stream(monkeypatch):
    """``sample -n 200`` builds its tables once and draws what 200 separate
    calls on one generator draw, with sample_derivation or the oracle."""
    lex = pdmg.load_lexicon(data_path("whq.lex"))
    theta, cfg = uniform_theta(lex), SampleConfig(start="c")
    for sampler in (sample_derivation, oracle.sample_reference):
        rng = np.random.default_rng(3)
        want = "".join(
            " ".join(it.ref for it in sampler(lex, theta, cfg, rng)[0]) + "\n"
            for _ in range(200))
        builds = []

        def counted(*args):
            builds.append(args)
            return _cumulative_tables(*args)

        monkeypatch.setattr(pdmg.model, "_cumulative_tables", counted)
        result = CliRunner().invoke(cli_main, ["sample", data_path("whq.lex"),
                                               "--start", "c", "-n", "200",
                                               "--seed", "3"])
        monkeypatch.undo()
        assert result.exit_code == 0
        assert result.stdout == want
        assert len(builds) == 1


@pytest.mark.parametrize("cap", [5, 6, 7, 8])
def test_cli_caps_rejections_per_draw(cap):
    """``--max-rejections`` bounds each draw of ``sample -n``, as each call.
    On this stream the 15th draw follows 7 rejections, the most of any
    draw: caps of 5 and 6 trip there, and 7 and 8 never do."""
    lex = pdmg.load_lexicon(data_path("whq.lex"))
    theta = uniform_theta(lex)
    cfg = SampleConfig(start="c", max_rejections=cap)
    rng = np.random.default_rng(3)
    lines, code = [], 0
    try:
        for _ in range(200):
            seq, _ = sample_derivation(lex, theta, cfg, rng)
            lines.append(" ".join(it.ref for it in seq) + "\n")
    except pdmg.CapExceeded:
        code = 4
    result = CliRunner().invoke(cli_main, ["sample", data_path("whq.lex"),
                                           "--start", "c", "-n", "200",
                                           "--seed", "3",
                                           "--max-rejections", str(cap)])
    assert (result.exit_code, result.stdout) == (code, "".join(lines))
    assert (code, len(lines)) == ((4, 14) if cap < 7 else (0, 200))


class TestRowsCheckedUpFront:
    """Every row is checked before the first draw, reached or not."""

    @pytest.mark.parametrize("row, match", [
        ([-0.25, 1.25], "entry -0.25"),
        ([math.nan, 1.0], "entry nan"),
        ([0.5, math.nan], "entry nan"),
        ([math.inf, 0.0], "entry inf"),
        ([0.5, 0.5 + 1e-7], "sums to"),
        ([0.0, 0.0], "sums to"),
        ([0.5, 0.25, 0.25], "3 entries"),
        (["half", 0.5], "list of numbers"),
    ])
    def test_bad_row_named(self, whq, row, match):
        theta = uniform_theta(whq)
        theta["d"] = row
        with pytest.raises(InvalidModel, match=match) as info:
            sample_derivation(whq, theta, SampleConfig(start="c"),
                              np.random.default_rng(0))
        assert "theta['d']" in str(info.value)

    def test_unreached_row(self, whq):
        theta = uniform_theta(whq)
        theta["v"] = [-1.0]
        with pytest.raises(InvalidModel, match=r"theta\['v'\]"):
            sample_derivation(whq, theta, SampleConfig(start="d"))

    def test_missing_row(self, whq):
        theta = uniform_theta(whq)
        del theta["i"]
        with pytest.raises(InvalidModel, match="missing category 'i'"):
            sample_derivation(whq, theta, SampleConfig(start="c"))

    def test_within_tolerance_samples(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [0.5, 0.5 + 1e-13]
        seq, _ = sample_derivation(whq, theta, SampleConfig(start="c"),
                                   np.random.default_rng(0))
        assert pdmg.is_wellformed(seq)
        theta["d"] = [0.5, 0.5 + 1e-9]  # within numpy's tolerance, not 1e-12
        assert _refused(lambda: sample_derivation(
            whq, theta, SampleConfig(start="c"), np.random.default_rng(0))) == \
            "theta['d'] sums to 1.000000001, expected 1 within 1e-12"


def _merged_bins(observed, expected, floor=5.0):
    """(observed, expected) bins; the least likely outcomes are pooled, in
    order, until each bin expects at least ``floor`` draws."""
    bins, o, e = [], 0, 0.0
    for key in sorted(expected, key=expected.get):
        o, e = o + observed.get(key, 0), e + expected[key]
        if e >= floor:
            bins.append((o, e))
            o, e = 0, 0.0
    if e and bins:  # a short remainder joins the last bin
        last_o, last_e = bins.pop()
        o, e = o + last_o, e + last_e
    if e:
        bins.append((o, e))
    return bins


@pytest.mark.parametrize("name, budget, draws", [
    ("ambig.lex", (2, 2), 4000),
    ("chain.lex", (3, 1), 500),
    ("move2.lex", (3, 1), 4000),
    ("whq.lex", (4, 1), 4000),
])
def test_draws_follow_the_model(name, budget, draws):
    lex = pdmg.load_lexicon(data_path(name))
    theta = sample_theta(lex, ones_alpha(lex), seed=23)
    support = [ids for ids, _ in oracle.enumerate_wellformed(lex, "c", *budget)]
    weight = {ids: pdmg.prob_of_sequence(tuple(lex.item(*i) for i in ids), theta)
              for ids in support}
    z = math.fsum(weight.values())
    expected = {ids: draws * w / z for ids, w in weight.items()}

    rng = np.random.default_rng(2024)
    observed: dict[tuple, int] = {}
    for _ in range(draws):
        seq, _ = sample_derivation(lex, theta, SampleConfig(start="c"), rng)
        ids = tuple(it.item_id for it in seq)
        assert ids in weight, ids  # the budgets cover every draw
        observed[ids] = observed.get(ids, 0) + 1

    bins = _merged_bins(observed, expected)
    if len(bins) == 1:
        assert bins[0][0] == draws
        return
    stat = math.fsum((o - e) ** 2 / e for o, e in bins)
    assert scipy.stats.chi2.sf(stat, df=len(bins) - 1) > 0.01
