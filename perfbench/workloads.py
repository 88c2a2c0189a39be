"""The four workloads: their operations and the checks on their outputs.

Each job builds a round, a fixed list of operations, from the seeded
inputs; ``digest`` reduces an operation's result to a value that must
repeat exactly in every round; ``check`` tests the first round's results
against values computed apart from pdmg (``inputs``) or against
``tests/oracle.py``, the repository's brute-force reference.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import inputs

REL_TOL = 1e-9


def _oracle_check():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from oracle import check
    return check


def _ids(seq):
    return tuple((it.cat_index, it.item_index) for it in seq)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TrainPP:
    """One operation is a whole ``pdmg.train`` fit of the corpus."""

    def __init__(self, api, spec, lexicon, sentences, theta):
        import pdmg
        self.api, self.spec, self.lexicon, self.sentences = api, spec, lexicon, sentences
        self.alpha = pdmg.ones_alpha(lexicon)
        self.config = pdmg.TrainConfig(start=spec.start, tol=inputs.TRAIN_TOL,
                                       max_iters=inputs.TRAIN_MAX_ITERS)

    def round_ops(self):
        return [lambda: self.api.train(self.lexicon, self.sentences, self.alpha,
                                       self.config)]

    def digest(self, state):
        if isinstance(state, Exception):
            return repr(state)
        return (state.omega, state.elbo_trace, state.iterations, state.converged)

    def check(self, results):
        problems = []
        for state in results:
            if isinstance(state, Exception):
                continue
            trace = state.elbo_trace
            if not state.converged:
                problems.append(f"no convergence in {state.iterations} iterations")
            for i in range(1, len(trace)):
                if trace[i] < trace[i - 1] - 1e-12 * abs(trace[i - 1]):
                    problems.append(f"bound fell at iteration {i + 1}")
            bound, next_omega = inputs.vb_reference(list(self.spec.pp), state.omega,
                                                    self.alpha)
            if not _close(bound, trace[-1]):
                problems.append(f"bound {trace[-1]!r} != reference {bound!r}")
            # A fixed point within the fit's tolerance: one more update
            # (omega <- alpha + expected counts) raises the bound by no
            # more than the tol the fit stopped at.
            next_bound, _ = inputs.vb_reference(list(self.spec.pp), next_omega,
                                                self.alpha)
            gain = next_bound - bound
            if not -1e-12 * abs(bound) <= gain <= inputs.TRAIN_TOL:
                problems.append(f"one more update changes the bound by {gain!r}")
        return problems

    def summary(self, results):
        state = results[0]
        if isinstance(state, Exception):
            return {}
        counts = [len(inputs.readings(s.e, s.k)) for s in self.spec.pp]
        return {"sentences": len(self.sentences), "iterations": state.iterations,
                "bound": state.elbo_trace[-1], "readings_max": max(counts),
                "readings_total": sum(counts)}


class ParseChain:
    """One operation parses one right-branching chain sentence."""

    def __init__(self, api, spec, lexicon, sentences, theta):
        import pdmg
        self.api, self.spec, self.lexicon, self.sentences = api, spec, lexicon, sentences
        self.config = pdmg.ParseConfig(start=spec.start)

    def round_ops(self):
        return [lambda s=s: self.api.parse(self.lexicon, s.split(), self.config)
                for s in self.sentences]

    def digest(self, forest):
        if isinstance(forest, Exception):
            return repr(forest)
        return [_ids(seq) for seq in forest.sequences]

    def check(self, results):
        check = _oracle_check()
        problems = []
        for sentence, want, forest in zip(self.sentences, self.spec.chain_ids, results):
            if isinstance(forest, Exception):
                continue
            n = len(sentence.split())
            if forest.count != 1:
                problems.append(f"{n} tokens: {forest.count} derivations, not 1")
                continue
            seq = forest.sequences[0]
            if _ids(seq) != want:
                problems.append(f"{n} tokens: derivation is not the generated one")
            if check(seq) != (True, sentence):
                problems.append(f"{n} tokens: the oracle rejects the derivation")
        return problems

    def summary(self, results):
        return {"tokens": [len(s.split()) for s in self.sentences]}


class ScorePP:
    """One operation scores one sentence as ``pdmg score`` does."""

    def __init__(self, api, spec, lexicon, sentences, theta):
        import pdmg
        self.api, self.spec, self.lexicon, self.sentences = api, spec, lexicon, sentences
        self.theta = theta
        self.config = pdmg.ParseConfig(start=spec.start)

    def score(self, sentence):
        api = self.api
        forest = api.parse(self.lexicon, sentence.split(), self.config)
        logs = [api.log_prob_of_sequence(seq, self.theta) for seq in forest.sequences]
        finite = [lp for lp in logs if lp != -math.inf]
        total = math.exp(_logsumexp(finite)) if finite else 0.0
        payload = {
            "sentence": sentence,
            "count": forest.count,
            "prob": total,
            "derivations": [
                {"items": [[it.cat_index, it.item_index] for it in seq],
                 "prob": 0.0 if lp == -math.inf else math.exp(lp)}
                for seq, lp in zip(forest.sequences, logs)
            ],
        }
        return api.canonical_json(payload)

    def round_ops(self):
        return [lambda s=s: self.score(s) for s in self.sentences]

    def digest(self, line):
        return repr(line) if isinstance(line, Exception) else line

    def check(self, results):
        problems = []
        for s, line in zip(self.spec.pp, results):
            if isinstance(line, Exception):
                continue
            out = json.loads(line)
            want = inputs.catalan(s.k + 1)
            if out["sentence"] != s.text:
                problems.append(f"{s.k} PPs: sentence field differs")
            if out["count"] != want or len(out["derivations"]) != want:
                problems.append(f"{s.k} PPs: {out['count']} readings, not {want}")
            ref = inputs.sentence_prob(s, self.spec.theta)
            if not _close(out["prob"], ref):
                problems.append(f"{s.k} PPs: prob {out['prob']!r} != inside {ref!r}")
            total = math.fsum(d["prob"] for d in out["derivations"])
            if not _close(out["prob"], total):
                problems.append(f"{s.k} PPs: derivations sum to {total!r}")
        return problems

    def summary(self, results):
        return {"pps": [s.k for s in self.spec.pp],
                "readings": [inputs.catalan(s.k + 1) for s in self.spec.pp]}


def _logsumexp(values):
    m = max(values)
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


class SampleWH:
    """One operation draws a derivation and spells it out."""

    def __init__(self, api, spec, lexicon, sentences, theta):
        import pdmg
        self.api, self.spec, self.lexicon, self.theta = api, spec, lexicon, theta
        self.config = pdmg.SampleConfig(start=spec.start)

    def round_ops(self):
        import numpy as np
        # Every round restarts the generator, so it repeats the same draws.
        rng = np.random.default_rng(self.spec.sample_seed)

        def draw():
            seq, rejected = self.api.sample_derivation(self.lexicon, self.theta,
                                                       self.config, rng)
            return seq, rejected, self.api.eval_sequence(seq)
        return [draw] * inputs.SAMPLE_DRAWS

    def digest(self, result):
        if isinstance(result, Exception):
            return repr(result)
        seq, rejected, words = result
        return _ids(seq), rejected, words

    def check(self, results):
        check = _oracle_check()
        problems = []
        for result in results:
            if isinstance(result, Exception):
                continue
            seq, _, words = result
            ok, oracle_words = check(seq)
            if not ok or oracle_words != words:
                problems.append(f"draw {' '.join(it.ref for it in seq)}: oracle "
                                f"says {ok} {oracle_words!r}, eval says {words!r}")
        return problems

    def summary(self, results):
        ok = [r for r in results if not isinstance(r, Exception)]
        rejected = sum(r[1] for r in ok)
        return {"draws": len(results), "rejected_per_draw": rejected / max(1, len(ok)),
                "mean_items": sum(len(r[0]) for r in ok) / max(1, len(ok))}


JOBS = {"train-pp": TrainPP, "parse-chain": ParseChain, "score-pp": ScorePP,
        "sample-wh": SampleWH}
