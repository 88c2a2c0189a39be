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

Only training's e-step and the two random draws (`sample_theta` and the
sampler) compute with numpy, so importing the package does not load it:
the names taken from `pdmg.inference` import that module, and numpy, on
first access, and the draws import numpy when they run.
"""

from .chart import ChartItem, DerivationForest, ParseConfig, TrainConfig, parse
from .errors import (ArityError, CapExceeded, EvalError, FeatureMismatch,
                     FeatureOrderError, InvalidModel, LexiconError, PdmgError,
                     RuleError, SmcViolation, UnderivableCategory,
                     UnknownCategoryError, UnparsedSentence)
from .lexicon import (Feature, FeatureKind, LexicalItem, Lexicon,
                      build_lexicon, lexicon_to_text, load_lexicon,
                      parse_feature, parse_lexicon)
from .model import (SampleConfig, load_alpha, load_theta, log_joint,
                    log_prob_of_sequence, ones_alpha, posterior_mean,
                    prob_of_sequence, sample_derivation, sample_derivations,
                    sample_theta, score_sentence, theta_star, uniform_theta,
                    validate_alpha, validate_theta)
from .structure import (Chain, Expression, Leaf, MergeNode, MoveNode,
                        count_nodes, derived_category, eval_expression,
                        eval_sequence, eval_tree, leaf_expression, merge_left,
                        merge_mover, merge_right, move_again, move_final,
                        render_tree, seq_to_tree, tree_to_seq)
from .wellformed import CursorTrace, TraceStep, is_wellformed, trace_wellformed

__version__ = "0.1.0"

_FROM_INFERENCE = frozenset({
    "EncodedCorpus", "SentencePosterior", "TrainState", "encode_corpus", "train",
})


def __getattr__(name: str):
    if name in _FROM_INFERENCE:
        from . import inference
        return getattr(inference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _FROM_INFERENCE)


__all__ = [
    "ArityError", "CapExceeded", "Chain", "ChartItem", "CursorTrace",
    "DerivationForest", "EncodedCorpus", "EvalError", "Expression", "Feature",
    "FeatureKind", "FeatureMismatch", "FeatureOrderError", "InvalidModel",
    "Leaf", "LexicalItem", "Lexicon", "LexiconError", "MergeNode", "MoveNode",
    "ParseConfig", "PdmgError", "RuleError", "SampleConfig",
    "SentencePosterior", "SmcViolation", "TraceStep", "TrainConfig",
    "TrainState", "UnderivableCategory", "UnknownCategoryError",
    "UnparsedSentence", "build_lexicon", "count_nodes", "derived_category",
    "encode_corpus", "eval_expression", "eval_sequence", "eval_tree",
    "is_wellformed", "leaf_expression", "lexicon_to_text", "load_alpha",
    "load_lexicon", "load_theta", "log_joint", "log_prob_of_sequence",
    "merge_left", "merge_mover", "merge_right", "move_again", "move_final",
    "ones_alpha", "parse", "parse_feature", "parse_lexicon", "posterior_mean",
    "prob_of_sequence", "render_tree", "sample_derivation",
    "sample_derivations", "sample_theta", "score_sentence", "seq_to_tree",
    "theta_star", "trace_wellformed", "train", "tree_to_seq", "uniform_theta",
    "validate_alpha", "validate_theta",
]
