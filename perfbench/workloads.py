"""Seeded input generators for the three benchmark workloads.

Each generator writes the files one workload feeds to the command line and
returns a ``Workload`` that also holds the truth the checks compare the
program's outputs against: the tokens ``tag`` must return, the equivalence
class the generator gave every token, and the gold tags.  Everything is a
pure function of the workload name and the seed; the generators use numpy's
PCG64 and nothing from the program under test, so editing ``src/`` never
changes the inputs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("em-short", "viterbi-long", "guess-raw-de")

# Lexicon forms are spelled only with these letters and unknown-word stems
# only with the stem letters below, so no unknown word is ever a lexicon
# form.  Stems end in a/o/u, which no guesser suffix ends with, so a stem
# plus one suffix matches exactly that suffix rule (see _check_guess).
_LEX_SYLLABLES = [c + v for c in "lnsthcjx" for v in "eiy"]
_STEM_SYLLABLES = [c + v for c in "bdfgkmprvwz" for v in "aou"]

# Abbreviations from the bundled tokenizer list; they keep their period and
# reach the guesser's abbreviation pattern.
_ABBREVIATIONS = ("z.B.", "usw.", "Dr.", "ca.", "vgl.", "Nr.", "bzw.", "ggf.")
# Non-alphanumeric tokens the tokenizer never detaches.
_SYMBOLS = ("-", "&", "%", "/", "*", "§", "=", "+")

# Sentences tagged after training with a lexicon extended by forms whose
# five-tag classes no model can know (generated classes have at most four
# tags, guesser classes at most three).  They do not depend on the seed.
UNSEEN_FORMS = {
    "Quixl": ("ITJ", "PTKANT", "TRUNC", "PWAV", "APZR"),
    "quexto": ("KOKOM", "KOUI", "PTKA", "PTKNEG", "PALL"),
}
UNSEEN_SENTENCES = (
    "Bamo Quixl bakot .",
    "Dorung quexto fabig !",
    "Quixl gamu pabot ?",
    "Wabo , quexto Kadung .",
    "Zumo dakte Quixl .",
    "vamu quexto Rabung .",
)


@dataclass
class Token:
    surface: str
    tag: int  # gold tag id
    cls: tuple  # the generator's class: sorted member tag ids


@dataclass
class Workload:
    name: str
    labels: list  # tag labels by id
    classes: list  # class inventory: sorted member tuples, lexicon then rules
    lexicon_map: dict  # surface -> class tuple, for every lexicon form
    files: dict  # role -> path (tagset, lexicon, rules, biases, major, ...)
    regime: str
    iters: int
    corpus: list  # untagged training sentences, lists of Token
    heldout: list  # sentences `tag` must return, lists of Token
    probe: list  # the one-sentence setup input, list of Token
    raw: bool  # `tag` reads raw text through the tokenizer
    with_class: bool
    prohibited: list  # (src, dst) transitions with a zero-weight bias
    unseen: list = field(default_factory=list)  # sentences, lists of (surface, tags|None)

    @property
    def corpus_tokens(self) -> int:
        return sum(len(s) for s in self.corpus)

    @property
    def heldout_tokens(self) -> int:
        return sum(len(s) for s in self.heldout)

    def signature(self, cls) -> str:
        return "+".join(self.labels[t] for t in cls)


def generate(name: str, seed: int, out: Path) -> Workload:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "em-short":
        return _synthetic(rng, out, name, n_tags=10, n_classes=30, n_forms=20_000,
                          lengths=(2, 7), train_tokens=15_000, tagged_tokens=0,
                          heldout_tokens=40_000, regime="bias", iters=4,
                          with_class=False)
    if name == "viterbi-long":
        return _synthetic(rng, out, name, n_tags=44, n_classes=300, n_forms=6_000,
                          lengths=(200, 3000), train_tokens=24_000,
                          tagged_tokens=8_000, heldout_tokens=48_000,
                          regime="counted", iters=1, with_class=True)
    if name == "guess-raw-de":
        return _german(rng, out, n_forms=100_000, train_tokens=15_000,
                       heldout_tokens=30_000, iters=2)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# --- sampling helpers -------------------------------------------------------

def _cdf(weights) -> list:
    """Cumulative weights ending in exactly 1.0, so bisection never lands on
    a zero-weight cell."""
    c = np.cumsum(np.asarray(weights, dtype=np.float64))
    return (c / c[-1]).tolist()


def _draw(cdf: list, u: float) -> int:
    return bisect.bisect_right(cdf, u)


def _zipf_cdf(n: int) -> list:
    return _cdf(1.0 / np.arange(1, n + 1) ** 1.1)


def _class_inventory(rng, n_tags, n_classes, required=()):
    """Every singleton, the required classes, then distinct random classes of
    two to four tags (sizes 2, 3, 4 weighted 4:2:1)."""
    classes = [(t,) for t in range(n_tags)]
    for cls in required:
        if cls not in classes:
            classes.append(cls)
    seen = set(classes)
    sizes = np.array([2, 3, 4])
    p = np.array([4.0, 2.0, 1.0]) / 7.0
    while len(classes) < n_classes:
        size = int(rng.choice(sizes, p=p))
        key = tuple(sorted(rng.choice(n_tags, size=size, replace=False).tolist()))
        if key not in seen:
            seen.add(key)
            classes.append(key)
    return classes


def _lexicon_form(i: int) -> str:
    """The i-th lexicon form: at least three syllables, all distinct."""
    syl = []
    i += len(_LEX_SYLLABLES) ** 2
    while i:
        i, r = divmod(i, len(_LEX_SYLLABLES))
        syl.append(_LEX_SYLLABLES[r])
    return "".join(syl)


def _stem(i: int) -> str:
    syl = []
    i += len(_STEM_SYLLABLES)
    while i:
        i, r = divmod(i, len(_STEM_SYLLABLES))
        syl.append(_STEM_SYLLABLES[r])
    return "".join(syl)


def _assign_forms(rng, n_forms, classes, eligible):
    """Spread ``n_forms`` lexicon forms over the eligible classes, each class
    getting at least one; returns {class index: [form, ...]}."""
    eligible = list(eligible)
    picks = eligible + rng.choice(eligible, size=n_forms - len(eligible)).tolist()
    by_class: dict = {}
    for i, c in enumerate(picks):
        by_class.setdefault(int(c), []).append(_lexicon_form(i))
    return by_class


def _forms_by_tag(by_class, classes, n_tags):
    """Per tag: the lexicon forms whose class contains it, with Zipf CDFs."""
    forms = [[] for _ in range(n_tags)]
    for c, fs in sorted(by_class.items()):
        for t in classes[c]:
            forms[t].extend((f, c) for f in fs)
    return [(fs, _zipf_cdf(len(fs)) if fs else None) for fs in forms]


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def _write_sentences(path: Path, sentences, labels=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for sent in sentences:
            for tok in sent:
                if labels is None:
                    f.write(tok.surface + "\n")
                else:
                    f.write(f"{tok.surface}\t{labels[tok.tag]}\n")
            f.write("\n")


def _write_lexicon(path: Path, by_class, classes, labels, extra=()) -> dict:
    lexicon_map = {}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for c, fs in sorted(by_class.items()):
            tags = " ".join(labels[t] for t in classes[c])
            for form in fs:
                f.write(f"{form}\t{tags}\n")
                lexicon_map[form] = classes[c]
        for form, cls in extra:
            f.write(f"{form}\t{' '.join(labels[t] for t in cls)}\n")
            lexicon_map[form] = cls
    return lexicon_map


def _major_lines(labels):
    majors = ("noun", "verb", "adjective", "adverb", "closed")
    return [f"{lab}\t{majors[i % len(majors)]}" for i, lab in enumerate(labels)]


# --- em-short and viterbi-long: synthetic tag sets -------------------------

class _SyntheticHmm:
    """Generator HMM over tags, emitting classes, each class realised by a
    Zipf draw over its lexicon forms."""

    def __init__(self, rng, n_tags, classes, by_class, n_prohibited):
        self.initial = _cdf(rng.dirichlet(np.ones(n_tags)))
        trans = rng.dirichlet(np.full(n_tags, 0.3), size=n_tags)
        self.prohibited = []
        for src in sorted(rng.choice(n_tags, size=n_prohibited, replace=False).tolist()):
            dst = int(np.argmin(trans[src]))
            trans[src, dst] = 0.0
            self.prohibited.append((src, dst))
        self.best_next = [int(np.argmax(row)) for row in trans]
        self.transition = [_cdf(row) for row in trans]
        self.emission = []  # per tag: (class indices, cdf)
        for t in range(n_tags):
            cs = [c for c, mem in enumerate(classes) if t in mem]
            self.emission.append((cs, _cdf(rng.dirichlet(np.ones(len(cs))))))
        self.forms = {c: (fs, _zipf_cdf(len(fs))) for c, fs in by_class.items()}
        self.classes = classes

    def sentences(self, rng, n_tokens, lengths):
        out = []
        produced = 0
        while produced < n_tokens:
            length = min(int(rng.integers(lengths[0], lengths[1] + 1)), n_tokens - produced)
            u = rng.random((length, 3)).tolist()
            sent = []
            tag = _draw(self.initial, u[0][0])
            for i in range(length):
                if i:
                    tag = _draw(self.transition[tag], u[i][0])
                cs, cdf = self.emission[tag]
                c = cs[_draw(cdf, u[i][1])]
                fs, fcdf = self.forms[c]
                sent.append(Token(fs[_draw(fcdf, u[i][2])], tag, self.classes[c]))
            out.append(sent)
            produced += length
        return out


def _synthetic(rng, out, name, *, n_tags, n_classes, n_forms, lengths, train_tokens,
               tagged_tokens, heldout_tokens, regime, iters, with_class):
    labels = [f"T{i:02d}" for i in range(n_tags)]
    classes = _class_inventory(rng, n_tags, n_classes)
    by_class = _assign_forms(rng, n_forms, classes, range(len(classes)))
    hmm = _SyntheticHmm(rng, n_tags, classes, by_class,
                        n_prohibited=3 if regime == "bias" else 0)
    corpus = hmm.sentences(rng, train_tokens, lengths)
    tagged = hmm.sentences(rng, tagged_tokens, lengths) if tagged_tokens else []
    heldout = hmm.sentences(rng, heldout_tokens, lengths)

    files = {role: out / fname for role, fname in (
        ("tagset", "tags"), ("lexicon", "lex"), ("rules", "rules"), ("major", "major"),
        ("corpus", "corpus.txt"), ("input", "heldout.txt"), ("gold", "heldout.gold"),
        ("probe", "probe.txt"))}
    _write_lines(files["tagset"], [f"{lab}\tsynthetic" for lab in labels]
                 + [f"!sentence_delim {labels[0]}"])
    lexicon_map = _write_lexicon(files["lexicon"], by_class, classes, labels)
    # Every form is in the lexicon; the guesser still needs its defaults.
    _write_lines(files["rules"], [f"DEFAULT U {labels[0]}", f"DEFAULT L {labels[0]}"])
    _write_lines(files["major"], _major_lines(labels))
    _write_sentences(files["corpus"], corpus)
    _write_sentences(files["input"], heldout)
    _write_sentences(files["gold"], heldout, labels)
    probe = heldout[0][:12]
    _write_sentences(files["probe"], [probe])
    if tagged:
        files["tagged"] = out / "tagged.gold"
        _write_sentences(files["tagged"], tagged, labels)
    if regime == "bias":
        files["biases"] = out / "biases"
        lines = [f"TRANS {labels[s]} {labels[d]} 0" for s, d in hmm.prohibited]
        lines += [f"TRANS {labels[s]} {labels[d]} 5" for s, d in enumerate(hmm.best_next)
                  if (s, d) not in hmm.prohibited]
        _write_lines(files["biases"], lines)
    # The rule classes (the T00 singleton) are already in the inventory.
    return Workload(name, labels, classes, lexicon_map, files, regime, iters,
                    corpus, heldout, probe, raw=False, with_class=with_class,
                    prohibited=hmm.prohibited if regime == "bias" else [])


# --- guess-raw-de: ELWIS resources, raw text, a wide-coverage lexicon -------

def _read_config(path: Path):
    for line in path.read_text("utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield line


def _elwis_labels():
    return [line.split("\t")[0] for line in _read_config(DATA / "elwis.tags")
            if not line.startswith("!")]


def _guesser_rules(tag_id):
    """The bundled rules as (kind, argument, case, class) tuples."""
    rules = []
    for line in _read_config(DATA / "guesser.rules"):
        f = line.split()
        if f[0] == "SUFFIX":
            rules.append(("SUFFIX", f[1], f[2], tuple(sorted(tag_id[x] for x in f[3:]))))
        elif f[0] == "PATTERN":
            rules.append(("PATTERN", f[1], None, tuple(sorted(tag_id[x] for x in f[2:]))))
        else:
            rules.append(("DEFAULT", None, f[1], tuple(sorted(tag_id[x] for x in f[2:]))))
    return rules


def _prohibited(tag_id):
    out = []
    for line in _read_config(DATA / "biases_de.txt"):
        f = line.split()
        if f[0] == "TRANS" and float(f[3]) == 0.0:
            out.append((tag_id[f[1]], tag_id[f[2]]))
    return out


def _check_guess(word, rule, rules):
    """Construction check: no longer suffix rule whose case condition holds
    also matches ``word``, so the guesser must pick ``rule``."""
    kind, sfx, _case, _cls = rule
    own = len(sfx) if kind == "SUFFIX" else 0
    for k, other, case, _ in rules:
        if k == "SUFFIX" and len(other) > own and word.endswith(other) and (
                case == "A" or (case == "U") == word[0].isupper()):
            raise AssertionError(f"generated word {word!r} also matches suffix {other!r}")


class _Guessable:
    """Unknown words aimed at one guesser rule each."""

    def __init__(self, rules):
        self.rules = rules
        self.made = {i: [] for i in range(len(rules))}
        self.next_stem = 0

    def word(self, rng, index) -> str:
        kind, arg, case, _cls = self.rules[index]
        made = self.made[index]
        if made and rng.random() < 0.2:
            return made[int(rng.integers(len(made)))]
        if kind == "PATTERN":
            if arg == "numeric":
                w = rng.choice([str(int(rng.integers(1, 3000))),
                                f"{int(rng.integers(0, 100))},{int(rng.integers(0, 10))}",
                                f"{int(rng.integers(0, 24))}:{int(rng.integers(10, 60))}",
                                f"{int(rng.integers(1900, 2000))}-{int(rng.integers(10, 99))}"])
            elif arg == "abbrev":
                w = _ABBREVIATIONS[int(rng.integers(len(_ABBREVIATIONS)))]
            else:
                w = _SYMBOLS[int(rng.integers(len(_SYMBOLS)))]
            w = str(w)
        else:
            stem = _stem(self.next_stem)
            self.next_stem += 1
            if case == "U":
                stem = stem.capitalize()
            w = stem + (arg if kind == "SUFFIX" else "")
            _check_guess(w, self.rules[index], self.rules)
        made.append(w)
        return w


def _render_raw(sentences) -> list:
    """Raw text lines the tokenizer splits back into exactly these tokens:
    commas and final punctuation glued to the word before, eight sentences
    a line."""
    lines, words = [], []
    for i, sent in enumerate(sentences):
        for j, tok in enumerate(sent):
            glue = j > 0 and (j == len(sent) - 1 or (tok.surface == "," and j % 3))
            if glue:
                words[-1] += tok.surface
            else:
                words.append(tok.surface)
        if i % 8 == 7:
            lines.append(" ".join(words))
            words = []
    if words:
        lines.append(" ".join(words))
    return lines


def _german(rng, out, *, n_forms, train_tokens, heldout_tokens, iters):
    labels = _elwis_labels()
    tag_id = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rules = _guesser_rules(tag_id)
    rule_classes = [r[3] for r in rules]
    art_pros_prels = tuple(sorted(tag_id[x] for x in ("ART", "PROS", "PRELS")))
    classes = _class_inventory(rng, n, 300, required=rule_classes + [art_pros_prels])
    final, comma, other = tag_id["$."], tag_id["$,"], tag_id["$("]
    symbol_rule = next(i for i, r in enumerate(rules) if r[1] == "symbol")

    # Lexicon: punctuation, then forms over every class but the punctuation
    # singletons.
    punct = [(".", (final,)), ("!", (final,)), ("?", (final,)), (",", (comma,))]
    eligible = [c for c, mem in enumerate(classes) if mem not in ((final,), (comma,))]
    by_class = _assign_forms(rng, n_forms, classes, eligible)
    by_tag = _forms_by_tag(by_class, classes, n)
    rules_by_tag = [[i for i, r in enumerate(rules) if t in r[3] and i != symbol_rule]
                    for t in range(n)]

    prohibited = _prohibited(tag_id)
    content = [t for t in range(n) if t != final]
    initial = np.zeros(n)
    initial[[t for t in content if t != comma]] = 1.0
    trans = np.zeros((n, n))
    # Open-class tags, the ones guesser rules can produce, get most of the
    # transition mass, so most tokens are unknown words for the guesser.
    open_class = np.array([12.0 if rules_by_tag[t] else 1.0 for t in content])
    trans[:, content] = rng.dirichlet(0.3 * open_class, size=n)
    for s, d in prohibited:
        trans[s, d] = 0.0
    initial_cdf = _cdf(initial)
    trans_cdf = [_cdf(row) for row in trans]
    guess = _Guessable(rules)
    art, noun = tag_id["ART"], tag_id["NN"]

    def token(tag, u) -> Token:
        if tag == comma:
            return Token(",", tag, (comma,))
        if tag == other:
            return Token(guess.word(rng, symbol_rule), tag, rules[symbol_rule][3])
        if rules_by_tag[tag] and u < 0.9:
            index = rules_by_tag[tag][int(rng.integers(len(rules_by_tag[tag])))]
            return Token(guess.word(rng, index), tag, rules[index][3])
        fs, cdf = by_tag[tag]
        form, c = fs[_draw(cdf, rng.random())]
        return Token(form, tag, classes[c])

    def sentences(n_tokens):
        result, produced = [], 0
        while produced < n_tokens:
            length = int(rng.integers(6, 25))
            u = rng.random((length, 2)).tolist()
            tags = [_draw(initial_cdf, u[0][0])]
            for i in range(1, length):
                tags.append(_draw(trans_cdf[tags[-1]], u[i][0]))
            if tags[-1] in (art, comma):  # ART $. is prohibited; keep ", ." out
                tags.append(noun)
            sent = [token(t, u[min(i, length - 1)][1]) for i, t in enumerate(tags)]
            sent.append(Token(".!?"[int(rng.integers(3))], final, (final,)))
            result.append(sent)
            produced += len(sent)
        return result

    corpus = sentences(train_tokens)
    heldout = sentences(heldout_tokens)

    files = {role: out / fname for role, fname in (
        ("lexicon", "de.lex"), ("extended", "de-extended.lex"), ("corpus", "corpus.txt"),
        ("input", "heldout.raw"), ("gold", "heldout.gold"), ("probe", "probe.raw"),
        ("unseen", "unseen.raw"))}
    files.update(tagset=DATA / "elwis.tags", rules=DATA / "guesser.rules",
                 biases=DATA / "biases_de.txt", major=DATA / "elwis.major")
    lexicon_map = _write_lexicon(files["lexicon"], by_class, classes, labels, punct)
    unseen_cls = [(f, tuple(sorted(tag_id[x] for x in tags)))
                  for f, tags in UNSEEN_FORMS.items()]
    _write_lexicon(files["extended"], by_class, classes, labels, punct + unseen_cls)
    _write_sentences(files["corpus"], corpus)
    _write_lines(files["input"], _render_raw(heldout))
    _write_sentences(files["gold"], heldout, labels)
    probe = heldout[0]
    _write_lines(files["probe"], _render_raw([probe]))
    _write_lines(files["unseen"], UNSEEN_SENTENCES)
    unseen = [[(w, UNSEEN_FORMS.get(w)) for w in s.split()] for s in UNSEEN_SENTENCES]
    return Workload("guess-raw-de", labels, classes, lexicon_map, files, "bias", iters,
                    corpus, heldout, probe, raw=True, with_class=False,
                    prohibited=prohibited, unseen=unseen)
