"""Fuzz ``pdmg score``, ``sample`` and ``train`` on mutated theta/alpha files
and on extreme or negative counts, caps and tolerances; ``parse``,
``derive``, ``check-seq`` and ``validate`` on mutated lexicon text,
malformed item references and unknown tokens; and ``parse --corpus`` and
``train`` on mutated corpus files.

Every run must end in a documented exit code (0, 2 bad input, 3 coverage
failure, 4 cap, or 1 when ``check-seq`` rejects a sequence) and never print
a traceback.  The CLI maps unexpected exceptions to exit 5, and CliRunner
reports an exception that escapes ``main`` as exit 1, so either is a
failure here.  Examples are derandomized, and positive counts and
rejection caps stay small so that every run ends quickly.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA, ERROR_CLASSES, data_path
from pdmg.cli import main

WHQ = data_path("whq.lex")
THETA = {"d": [0.5, 0.5], "v": [1.0], "i": [1.0], "c": [1.0]}
ALPHA = {"d": [1.0, 1.0], "v": [1.0], "i": [1.0], "c": [1.0]}
# Success, and the status each error class carries.
DOCUMENTED = {0} | {cls.exit_code for cls in ERROR_CLASSES}

FUZZ = settings(max_examples=400, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

EDGES = st.sampled_from([0.0, -0.0, 1.0, 0.5 + 1e-9, 0.5 + 1e-7, 1e-320, 1e-300,
                         1e300, 1e308])
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                      st.floats(), st.floats(0.0, 2.0), EDGES, EDGES)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=8)
BIG = 10**30


def optional(values):
    """None (the option left out) two times in three, else ``values``."""
    return st.one_of(st.none(), st.none(), values)


OPTIONAL_CAP = optional(st.one_of(st.integers(-BIG, BIG),
                                  st.sampled_from([-1, 0, 1, BIG])))


@st.composite
def model_text(draw, base):
    """``base`` as JSON, after a few row or entry edits and, sometimes, a cut
    or a spliced byte in the text."""
    rows = {cat: list(row) for cat, row in base.items()}
    for _ in range(draw(st.integers(0, 3))):
        cat = draw(st.sampled_from([*rows, "zz"]))
        edit = draw(st.sampled_from(["entry", "entry", "row", "drop"]))
        if edit == "drop":
            rows.pop(cat, None)
        elif edit == "entry" and isinstance(rows.get(cat), list) and rows[cat]:
            rows[cat][draw(st.integers(0, len(rows[cat]) - 1))] = draw(JSON_LEAF)
        else:
            rows[cat] = draw(JSON_VALUE)
    text = json.dumps(rows).encode()
    damage = draw(st.sampled_from(["none", "none", "none", "cut", "splice"]))
    if damage != "none":
        at = draw(st.integers(0, len(text)))
        tail = text[at + 1:] if damage == "splice" else b""
        text = text[:at] + draw(st.binary(max_size=1)) + tail
    return text


def _options(values):
    """``[flag, value, ...]`` for each flag whose value is not None."""
    return [arg for flag, value in values.items() if value is not None
            for arg in (flag, str(value))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "corpus.txt").write_text("what did you see\n", encoding="utf-8")
    return d


def test_documented_codes_are_the_classes():
    """The set above is read off the error classes, so a class given a new
    or wrong exit_code fails here instead of widening what the fuzz accepts."""
    assert DOCUMENTED == {0, 2, 3, 4}


def _invoke(args):
    r = CliRunner().invoke(main, args)
    assert "Traceback" not in r.output, r.output
    rejected = (args[0] == "check-seq" and r.exit_code == 1
                and r.stdout.endswith("ill-formed\n"))
    assert rejected or r.exit_code in DOCUMENTED, (
        args, r.exit_code, r.output, r.exception)
    return r


@FUZZ
@given(theta=optional(model_text(THETA)),
       max_covert=OPTIONAL_CAP, max_steps=OPTIONAL_CAP,
       max_derivations=OPTIONAL_CAP)
def test_score(workdir, theta, max_covert, max_steps, max_derivations):
    args = ["score", WHQ, "what did you see", "--start", "c"]
    if theta is not None:
        (workdir / "theta.json").write_bytes(theta)
        args += ["--theta", str(workdir / "theta.json")]
    _invoke(args + _options({"--max-covert": max_covert,
                             "--max-steps": max_steps,
                             "--max-derivations": max_derivations}))


@FUZZ
@given(theta=st.one_of(st.none(), model_text(THETA)),
       n=optional(st.integers(-BIG, 3)),
       max_depth=OPTIONAL_CAP,
       max_rejections=optional(st.integers(-BIG, 50)))
def test_sample(workdir, theta, n, max_depth, max_rejections):
    args = ["sample", WHQ, "--start", "c", "--seed", "7"]
    if theta is not None:
        (workdir / "theta.json").write_bytes(theta)
        args += ["--theta", str(workdir / "theta.json")]
    r = _invoke(args + _options({"-n": n, "--max-depth": max_depth,
                                 "--max-rejections": max_rejections}))
    if n is not None and n < 0:
        assert r.exit_code == 2 and r.stdout == ""


@FUZZ
@given(alpha=st.one_of(st.none(), model_text(ALPHA)),
       tol=optional(st.one_of(st.floats(),
                              st.sampled_from([0.0, -0.0, 1e-300, 1e308]))),
       max_iters=optional(st.integers(-BIG, BIG)),
       max_covert=OPTIONAL_CAP, max_steps=OPTIONAL_CAP)
def test_train(workdir, alpha, tol, max_iters, max_covert, max_steps):
    out = workdir / "result.json"
    args = ["train", WHQ, str(workdir / "corpus.txt"), "--start", "c",
            "--out", str(out)]
    if alpha is not None:
        (workdir / "alpha.json").write_bytes(alpha)
        args += ["--alpha", str(workdir / "alpha.json")]
    _invoke(args + _options({"--tol": None if tol is None else repr(tol),
                             "--max-iters": max_iters,
                             "--max-covert": max_covert,
                             "--max-steps": max_steps}))


# -- lexicons, item references and tokens ---------------------------------------

LEXICONS = sorted(p.read_text(encoding="utf-8") for p in DATA.glob("*.lex"))
FEATURE = st.one_of(
    st.sampled_from(["d", "=d", "d=", "=v", "v", "=i", "i", "c", "+wh", "-wh",
                     "-k", "=c", "=", "+", "-", "==d", "d==", "=+wh", "D", "1x",
                     "::", "ε"]),
    st.text(max_size=3))
# The items of whq.lex, by bare phon and by reference, and references that
# are malformed or out of range.  int() reads the Arabic-Indic "٣" but not
# the superscript "²", though str.isdigit takes both.
REF = st.one_of(
    st.sampled_from(["what", "you", "see", "did", "ε", "eps", "what@0.0",
                     "you@0.1", "see@1.0", "did@2.0", "ε@3.0", "eps@3.0"]),
    st.sampled_from(["@", "x@", "@0.0", "what@0", "what@0.0.0", "what@-1.0",
                     "what@a.b", "what@9.0", "what@0.9", "what@ 0.0",
                     "what@1.0", "what@\u00b2.0", "what@\u0663.0", "what@0x1.0",
                     "what@" + "9" * 5000 + ".0", "x@y@0.0", "nobody"]),
    st.text(max_size=6))
WALKTHROUGH = ["ε", "did", "see", "you", "what"]


@st.composite
def item_refs(draw):
    """whq.lex's walkthrough sequence, or a permutation of some of its items,
    with up to two references replaced."""
    refs = draw(st.one_of(st.just(WALKTHROUGH), st.permutations(WALKTHROUGH)))
    refs = refs[:draw(st.integers(1, len(refs)))]
    for _ in range(draw(st.integers(0, 2))):
        refs[draw(st.integers(0, len(refs) - 1))] = draw(REF)
    return refs


TOKEN = st.one_of(st.sampled_from(["what", "did", "you", "see", "saw", "kim",
                                   "a", "b", "ε", "::", "#"]),
                  st.text(max_size=4))


@st.composite
def lexicon_bytes(draw):
    """A fixture's text after a few line edits (new features, a duplicated
    or dropped line, a missing ``::``, a random line) and, sometimes, a BOM,
    CRLF line ends, or a cut or spliced byte."""
    lines = draw(st.sampled_from(LEXICONS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["features", "duplicate", "drop",
                                     "no-separator", "line"]))
        phon = lines[at].partition("::")[0].strip()
        if edit == "features":
            lines[at] = f"{phon} :: " + " ".join(
                draw(st.lists(FEATURE, min_size=0, max_size=4)))
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "drop" and len(lines) > 1:
            del lines[at]
        elif edit == "no-separator":
            lines[at] = lines[at].replace("::", " ", 1)
        elif edit == "line":
            lines.insert(at, draw(st.text(max_size=12)))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = (ending.join(lines) + ending).encode("utf-8")
    if draw(st.booleans()):
        text = b"\xef\xbb\xbf" + text
    damage = draw(st.sampled_from(["none", "none", "none", "cut", "splice"]))
    if damage != "none":
        at = draw(st.integers(0, len(text)))
        tail = text[at + 1:] if damage == "splice" else b""
        text = text[:at] + draw(st.binary(max_size=2)) + tail
    return text


LEXICON = st.one_of(st.none(), st.none(), lexicon_bytes())  # None: whq.lex


def _lexicon_path(workdir, text):
    if text is None:
        return WHQ
    (workdir / "fuzz.lex").write_bytes(text)
    return str(workdir / "fuzz.lex")


@FUZZ
@given(lexicon=lexicon_bytes())
def test_validate(workdir, lexicon):
    _invoke(["validate", _lexicon_path(workdir, lexicon)])


@FUZZ
@given(lexicon=LEXICON, refs=item_refs(), trace=st.booleans())
def test_check_seq(workdir, lexicon, refs, trace):
    _invoke(["check-seq", _lexicon_path(workdir, lexicon), *refs,
             "--trace" if trace else "--no-trace"])


@FUZZ
@given(lexicon=LEXICON, refs=item_refs())
def test_derive(workdir, lexicon, refs):
    _invoke(["derive", _lexicon_path(workdir, lexicon), *refs])


@FUZZ
@given(lexicon=LEXICON, tokens=st.lists(TOKEN, max_size=5),
       start=st.sampled_from(["c", "d", "v", "zz", "", "=c"]))
def test_parse(workdir, lexicon, tokens, start):
    _invoke(["parse", _lexicon_path(workdir, lexicon), " ".join(tokens),
             "--start", start])


# -- corpus files ----------------------------------------------------------------

SENTENCES = ["what did you see", "you see what", "what did you see", "see",
             "# a comment", "", "   "]
# Bytes that are not UTF-8 text (a lone continuation, a cut sequence, an
# encoded surrogate) or that are odd in it (NUL, a C1 control, a BOM).
ODD_BYTES = st.one_of(
    st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\x00",
                     b"\xc2\x85", b"\xef\xbb\xbf"]),
    st.binary(min_size=1, max_size=2))


@st.composite
def corpus_bytes(draw):
    """An empty or comment-only file, or a few sentences after line edits
    (unknown tokens, a very long line, a random line) and, sometimes, a BOM,
    CRLF line ends, or an odd or invalid UTF-8 byte spliced in."""
    kind = draw(st.sampled_from(["sentences", "sentences", "sentences",
                                 "empty", "comments"]))
    if kind == "empty":
        return draw(st.sampled_from([b"", b"\n", b"\r\n", b"\xef\xbb\xbf"]))
    if kind == "comments":
        lines = draw(st.lists(st.sampled_from(["# only comments", "#", "  # x",
                                               ""]), min_size=1, max_size=4))
    else:
        lines = draw(st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=4))
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["tokens", "long", "line"]))
            if edit == "tokens":
                lines[at] = " ".join(draw(st.lists(TOKEN, max_size=6)))
            elif edit == "long":
                lines[at] = " ".join([draw(TOKEN)] * draw(st.sampled_from([500, 3000])))
            else:
                lines[at] = draw(st.text(max_size=12))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = ending.join(lines).encode("utf-8")
    if draw(st.booleans()):
        text += ending.encode()
    if draw(st.booleans()):
        text = b"\xef\xbb\xbf" + text
    if draw(st.sampled_from([False, False, True])):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(ODD_BYTES) + text[at:]
    return text


def _corpus_path(workdir, text):
    (workdir / "fuzz-corpus.txt").write_bytes(text)
    return str(workdir / "fuzz-corpus.txt")


@FUZZ
@given(corpus=corpus_bytes(), sentences=st.lists(TOKEN, max_size=2))
def test_parse_corpus(workdir, corpus, sentences):
    _invoke(["parse", WHQ, *sentences, "--start", "c",
             "--corpus", _corpus_path(workdir, corpus)])


@FUZZ
@given(corpus=corpus_bytes(), skip=st.booleans())
def test_train_corpus(workdir, corpus, skip):
    _invoke(["train", WHQ, _corpus_path(workdir, corpus), "--start", "c",
             "--out", str(workdir / "result.json"), "--max-iters", "20"]
            + (["--skip-unparsed"] if skip else []))
