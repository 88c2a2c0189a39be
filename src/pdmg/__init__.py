"""Probabilistic directional minimalist grammars.

Lexical items carry an ordered feature sequence (selectors, then
licensors, one category, then licensees).  A derivation is named by the
head-first flattening of its tree into a sequence of items; this package
checks such sequences (`is_wellformed`), evaluates them in one pass
(`eval_sequence`), rebuilds their trees (`seq_to_tree`), enumerates all
derivations of a sentence (`parse`), scores sequences and sentences
under per-item probabilities (`log_prob_of_sequence`, `score_sentence`),
draws them from those probabilities (`sample_derivations`, one stream of
draws, and `sample_derivation`, its first), and fits the probabilities to
a corpus with variational Bayes (`train`).

`_EXPORTS` names each public name once, under the module that defines
it, and has a key for every library module (all but ``cli``); `__all__`
and `dir()` are read from it.  A bare ``import pdmg`` loads
no submodule: the first read of a name imports its module and keeps the
value here, and a module's own name (``pdmg.model``) resolves the same
way.  So a caller loads only what it reads, and numpy, which only
training's e-step (`pdmg.inference`) and the two random draws
(`sample_theta` and the sampler) compute with, is loaded by the trainer
on first access and by the draws when they run.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chart": ("ChartItem", "DerivationForest", "ParseConfig", "SampleConfig",
              "TrainConfig", "parse"),
    "corpus": (),
    "errors": ("ArityError", "CapExceeded", "EvalError", "FeatureMismatch",
               "FeatureOrderError", "InvalidModel", "LexiconError", "PdmgError",
               "RuleError", "SmcViolation", "UnderivableCategory",
               "UnknownCategoryError", "UnparsedSentence"),
    "inference": ("EncodedCorpus", "SentencePosterior", "TrainState",
                  "encode_corpus", "train"),
    "lexicon": ("Feature", "FeatureKind", "LexicalItem", "Lexicon",
                "build_lexicon", "lexicon_to_text", "load_lexicon",
                "parse_feature", "parse_lexicon"),
    "model": ("load_alpha", "load_theta", "log_joint", "log_prob_of_sequence",
              "ones_alpha", "posterior_mean", "prob_of_sequence",
              "sample_derivation", "sample_derivations", "sample_theta",
              "score_sentence", "theta_star", "uniform_theta",
              "validate_alpha", "validate_theta"),
    "special": (),
    "structure": ("Chain", "Expression", "Leaf", "MergeNode", "MoveNode",
                  "count_nodes", "derived_category", "eval_expression",
                  "eval_sequence", "eval_tree", "leaf_expression", "merge_left",
                  "merge_mover", "merge_right", "move_again", "move_final",
                  "render_tree", "seq_to_tree", "tree_to_seq"),
    "wellformed": ("CursorTrace", "TraceStep", "is_wellformed",
                   "trace_wellformed"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
