"""Command-line interface.

Every command runs through ``_Command``, the one place that maps how a
command ends to its exit status: its callback's return value, or the
``exit_code`` of the ``PdmgError`` it raised (see ``pdmg.errors``).  The
README tabulates the codes.

At module level this imports only what every command uses (click and
``chart``, ``corpus``, ``errors``, ``lexicon``); each command imports
the module it runs when it runs, so ``parse`` and ``validate`` never
load the evaluator, the checker or the scorer.
"""

from __future__ import annotations

import sys
from typing import Callable

import click

from . import __version__
from .chart import ParseConfig, SampleConfig, TrainConfig, parse
from .corpus import canonical_json, load_corpus
from .errors import LexiconError, PdmgError, UnknownCategoryError
from .lexicon import LexicalItem, Lexicon, load_lexicon

REJECTED = 1
BAD_INPUT = 2
INTERNAL_ERROR = 5

_COVERT = ("ε", "eps")  # reference aliases of the empty phon


class _Command(click.Command):
    """A command whose every ending is a documented exit status."""

    def invoke(self, ctx: click.Context) -> None:
        try:
            code = super().invoke(ctx)
        except BrokenPipeError:
            raise  # click ends a run whose stdout was closed: silent, status 1
        except PdmgError as exc:
            message, code = str(exc), exc.exit_code
        except OSError as exc:
            message, code = str(exc), BAD_INPUT
        except UnicodeDecodeError as exc:
            message, code = f"input is not UTF-8 text ({exc})", BAD_INPUT
        except Exception as exc:  # a bug, not a verdict: keep it apart from 1-4
            message = f"internal error: {type(exc).__name__}: {exc}"
            code = INTERNAL_ERROR
        else:
            sys.exit(code or 0)
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


def _cap_options(command: Callable) -> Callable:
    """Add the chart's caps as options; they reach the command as keywords."""
    for option in reversed((
        click.option("--max-derivations", default=ParseConfig.max_derivations,
                     show_default=True),
        click.option("--max-covert", default=ParseConfig.max_covert,
                     show_default=True,
                     help="Unpronounced leaves allowed per derivation; a "
                     "derivation that needs more is dropped, not an error."),
        click.option("--max-steps", default=ParseConfig.max_steps,
                     show_default=True),
    )):
        command = option(command)
    return command


def resolve_item(lexicon: Lexicon, ref: str) -> LexicalItem:
    """Resolve ``phon@k.m`` (0-based category.item) or a bare unique phon.

    ``phon@k.m`` names item k.m if that item is spelled ``phon``, or is
    covert and ``phon`` is ``ε`` or ``eps``: the form ``LexicalItem.ref``
    prints, so every printed reference reads back.  Otherwise a literal
    spelling wins, so an item spelled ``eps`` or ``a@b`` is named by its
    spelling, and ``ε`` and ``eps`` name covert items.
    """
    matches = lexicon.items_by_phon(ref)
    if "@" in ref:
        try:
            return _indexed_item(lexicon, ref)
        except LexiconError:
            if not matches:
                raise
    if not matches and ref in _COVERT:
        matches = lexicon.covert_items()
    if not matches:
        raise LexiconError(f"no lexical item spelled {ref!r}")
    if len(matches) > 1:
        options = ", ".join(it.ref for it in matches)
        raise LexiconError(f"{ref!r} is ambiguous; use one of: {options}")
    return matches[0]


def _indexed_item(lexicon: Lexicon, ref: str) -> LexicalItem:
    """The item ``ref``, read as ``phon@k.m``, names; LexiconError if none."""
    phon, _, pos = ref.rpartition("@")
    parts = pos.split(".")
    try:  # int() refuses, too, a number past its digit limit
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ValueError
        k, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise LexiconError(f"bad item reference {ref!r}: "
                           "expected phon@<cat>.<item> with integers") from None
    try:
        item = lexicon.item(k, m)
    except (LexiconError, UnknownCategoryError) as exc:
        raise LexiconError(f"bad item reference {ref!r}: {exc}") from None
    if phon != item.phon and not (phon in _COVERT and not item.phon):
        raise LexiconError(f"bad item reference {ref!r}: item at "
                           f"{k}.{m} is {item.ref}")
    return item


@click.group()
@click.version_option(version=__version__, prog_name="pdmg")
def main() -> None:
    """Derivation sequences: check, enumerate, score, sample, train."""


main.command_class = _Command


@main.command()
@click.argument("lexicon_path", metavar="LEXICON")
def validate(lexicon_path: str) -> None:
    """Parse LEXICON and summarize it."""
    lex = load_lexicon(lexicon_path)
    click.echo(f"{lex.n_items} items, {len(lex.categories)} categories")
    for k, cat in enumerate(lex.categories):
        items = ", ".join(it.ref for it in lex.items_of_category(cat))
        click.echo(f"  [{k}] {cat}: {items}")
    covert = lex.covert_items()
    if covert:
        click.echo("covert: " + ", ".join(it.ref for it in covert))
    for name, group in lex.smc_risk_groups().items():
        refs = ", ".join(it.ref for it in group)
        click.echo(f"note: several items lead with -{name}: {refs}")


@main.command("check-seq")
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("refs", metavar="ITEM...", nargs=-1, required=True)
@click.option("--trace/--no-trace", default=True, show_default=True,
              help="Print each cursor action.")
def check_seq(lexicon_path: str, refs: tuple[str, ...], trace: bool) -> int:
    """Run the well-formedness check on an item sequence."""
    from .wellformed import is_wellformed, trace_wellformed

    lex = load_lexicon(lexicon_path)
    seq = tuple(resolve_item(lex, r) for r in refs)
    if trace:
        result = trace_wellformed(seq)
        for i, step in enumerate(result.steps, start=1):
            where = "-" if step.position < 0 else str(step.position)
            click.echo(f"{i:3d}  pos={where:>2}  {step.action:<14} {step.detail}")
        verdict = result.verdict
    else:
        verdict = is_wellformed(seq)
    click.echo("well-formed" if verdict else "ill-formed")
    return 0 if verdict else REJECTED


@main.command()
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("refs", metavar="ITEM...", nargs=-1, required=True)
def derive(lexicon_path: str, refs: tuple[str, ...]) -> None:
    """Build the tree for an item sequence and spell out its string."""
    from .structure import eval_sequence, render_tree, seq_to_tree

    lex = load_lexicon(lexicon_path)
    seq = tuple(resolve_item(lex, r) for r in refs)
    click.echo(render_tree(seq_to_tree(seq)))
    text = eval_sequence(seq)
    click.echo(f"category: {seq[0].category}")
    click.echo(f"string: {text or 'ε'}")


@main.command("parse")
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("sentences", metavar="[SENTENCE]...", nargs=-1)
@click.option("--start", required=True, help="Category a derivation must yield.")
@click.option("--corpus", "corpus_path", default=None,
              help="Read sentences from a file (one per line) as well.")
@_cap_options
def parse_cmd(lexicon_path: str, sentences: tuple[str, ...], start: str,
              corpus_path: str | None, **caps: int) -> None:
    """Enumerate the derivations of each sentence; one JSON line each."""
    lex = load_lexicon(lexicon_path)
    lex.check_start(start)
    todo = list(sentences)
    if corpus_path is not None:
        todo.extend(load_corpus(corpus_path))
    cfg = ParseConfig(start=start, **caps)
    pairs = [[it.cat_index, it.item_index] for it in lex.items]
    for sentence in todo:
        forest = parse(lex, sentence.split(), cfg)
        payload = {
            "sentence": sentence,
            "count": forest.count,
            "derivations": [[pairs[g] for g in d] for d in forest.ids],
        }
        click.echo(canonical_json(payload))


@main.command()
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("sentence", metavar="SENTENCE")
@click.option("--start", required=True, help="Category a derivation must yield.")
@click.option("--theta", "theta_path", default=None,
              help="Item probabilities as JSON (default: uniform per category).")
@_cap_options
def score(lexicon_path: str, sentence: str, start: str, theta_path: str | None,
          **caps: int) -> None:
    """Sum derivation probabilities for SENTENCE; one JSON object."""
    from .model import load_theta, score_sentence, uniform_theta

    lex = load_lexicon(lexicon_path)
    lex.check_start(start)
    theta = (uniform_theta(lex) if theta_path is None
             else load_theta(theta_path, lex))
    cfg = ParseConfig(start=start, **caps)
    click.echo(canonical_json(score_sentence(lex, sentence, theta, cfg)))


@main.command()
@click.argument("lexicon_path", metavar="LEXICON")
@click.option("--start", required=True, help="Category to expand from.")
@click.option("-n", "count", type=click.IntRange(min=0), default=1,
              show_default=True, help="Number of sequences to draw.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="RNG seed.")
@click.option("--theta", "theta_path", default=None,
              help="Item probabilities as JSON (default: uniform per category).")
@click.option("--max-depth", default=SampleConfig.max_depth, show_default=True)
@click.option("--max-rejections", default=SampleConfig.max_rejections,
              show_default=True)
def sample(lexicon_path: str, start: str, count: int, seed: int | None,
           theta_path: str | None, max_depth: int, max_rejections: int) -> None:
    """Draw well-formed sequences; one line of item references each."""
    import numpy as np

    from .model import load_theta, sample_derivations, uniform_theta

    lex = load_lexicon(lexicon_path)
    lex.check_start(start)
    theta = (uniform_theta(lex) if theta_path is None
             else load_theta(theta_path, lex))
    cfg = SampleConfig(start=start, max_depth=max_depth,
                       max_rejections=max_rejections)
    draws = sample_derivations(lex, theta, cfg, np.random.default_rng(seed))
    for _ in range(count):
        seq, _rejected = next(draws)
        click.echo(" ".join(it.ref for it in seq))


@main.command("train")
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("corpus_path", metavar="CORPUS")
@click.option("--start", required=True, help="Category a derivation must yield.")
@click.option("--alpha", "alpha_path", default=None,
              help="Dirichlet pseudo-counts as JSON (default: all ones).")
@click.option("--tol", default=TrainConfig.tol, show_default=True,
              help="Stop when the bound moves less than this.")
@click.option("--max-iters", default=TrainConfig.max_iters, show_default=True)
@click.option("--skip-unparsed", is_flag=True,
              help="Drop underivable sentences instead of failing.")
@click.option("--out", "out_path", default="result.json", show_default=True,
              help="Where to write the fitted model.")
@_cap_options
def train_cmd(lexicon_path: str, corpus_path: str, start: str,
              alpha_path: str | None, tol: float, max_iters: int,
              skip_unparsed: bool, out_path: str, **caps: int) -> None:
    """Fit per-item probabilities to CORPUS and write a JSON result."""
    from .inference import train
    from .model import load_alpha, ones_alpha

    lex = load_lexicon(lexicon_path)
    lex.check_start(start)
    alpha = (ones_alpha(lex) if alpha_path is None
             else load_alpha(alpha_path, lex))
    sentences = load_corpus(corpus_path)
    cfg = TrainConfig(start=start, tol=tol, max_iters=max_iters,
                      skip_unparsed=skip_unparsed, **caps)
    state = train(lex, sentences, alpha, cfg)
    payload = {
        "omega": state.omega,
        "theta_mean": state.theta_mean,
        "elbo_trace": state.elbo_trace,
        "iterations": state.iterations,
        "converged": state.converged,
        "unparsed": state.unparsed,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    status = "converged" if state.converged else "stopped"
    bound = state.elbo_trace[-1] if state.elbo_trace else float("nan")
    # From 1e16 on, .6f spells out every integer digit (hundreds near
    # 1e305); print such a bound as result.json holds it.
    shown = canonical_json(bound) if abs(bound) >= 1e16 else f"{bound:.6f}"
    click.echo(f"{status} after {state.iterations} iterations, "
               f"bound {shown}, wrote {out_path}")


if __name__ == "__main__":
    main()
