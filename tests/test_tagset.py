import io

import pytest

from hmmtagger.errors import ConfigError, FormatError
from hmmtagger.evaluation import load_major_classes
from hmmtagger.lexicon import ClassStore, load_guesser_rules, load_lexicon
from hmmtagger.model import load_biases
from hmmtagger.tagset import Tag, TagSet, default_tagset, load_tagset


def load(text):
    return load_tagset(io.StringIO(text))


class TestBundledTagset:
    def test_inventory(self, elwis):
        # 43 printed ELWIS tags plus the appended PWAV
        assert len(elwis) == 44
        for label in ("NN", "NE", "VFIN", "ART", "TRUNC", "$.", "$,", "$(", "PWAV"):
            assert elwis.tag_id(label) is not None
        assert elwis.label(0) == "NN"

    def test_sentence_delimiter_is_final_punctuation(self, elwis):
        assert elwis.sentence_delimiters == {elwis.tag_id("$.")}

    def test_round_trip_all_labels(self, elwis):
        for tag in elwis:
            assert elwis.tag_id(tag.label) == tag.id

    def test_load_is_deterministic(self):
        a = default_tagset()
        b = default_tagset()
        assert a == b
        assert a.labels == b.labels


def test_single_entry_file():
    ts = load("X\ttest\n")
    assert len(ts) == 1
    assert ts.tag_id("X") == 0
    assert ts.sentence_delimiters == frozenset()


def test_ids_follow_file_order():
    ts = load("B\tsecond letter\nA\tfirst letter\n")
    assert ts.tag_id("B") == 0
    assert ts.tag_id("A") == 1


def test_duplicate_label_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        load("X\tone\nX\ttwo\n")


def test_empty_file_rejected():
    with pytest.raises(ConfigError):
        load("# only a comment\n")


def test_unknown_sentence_delim_label():
    with pytest.raises(ConfigError, match="NOPE"):
        load("X\ttest\n!sentence_delim NOPE\n")


def test_delim_directive_may_precede_definition():
    ts = load("!sentence_delim END\nX\ttest\nEND\tstop\n")
    assert ts.sentence_delimiters == {ts.tag_id("END")}


def test_label_with_whitespace_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        load("X Y\tdescription\n")


def test_label_with_plus_rejected():
    # '+' joins the labels of a class signature: X+Y and Z would make the
    # signature X+Y+Z, which reads back as three tags
    with pytest.raises(ConfigError, match=r"^line 2: tag label 'X\+Y' contains '\+'$"):
        load("Z\ttest\nX+Y\ttest\n")


def test_unknown_directive_rejected():
    with pytest.raises(ConfigError, match="directive"):
        load("!frobnicate X\nX\ttest\n")


def test_lookup_is_case_sensitive(elwis):
    assert elwis.tag_id("NN") is not None
    assert elwis.tag_id("nn") is None


def test_lookup_missing_label():
    ts = load("X\ttest\n")
    assert ts.tag_id("Y") is None


def test_comments_and_blank_lines_ignored():
    ts = load("# header\n\nX\ttest\n\n# trailer\n")
    assert len(ts) == 1


# Each config loader with a small valid file over the tags NN and ART.
CONFIG_LOADERS = {
    "tagset": (lambda src, ts: load_tagset(src), "NN\tnoun\nART\tarticle\n"),
    "lexicon": (load_lexicon, "Haus\tNN\ndas\tART\n"),
    "rules": (lambda src, ts: load_guesser_rules(src, ts, ClassStore()),
              "DEFAULT U NN\nDEFAULT L ART\n"),
    "biases": (load_biases, "TRANS ART NN 2\n"),
    "major-classes": (load_major_classes, "NN noun\nART closed\n"),
}
CONFIG_TAGS = TagSet([Tag(0, "NN"), Tag(1, "ART")])


@pytest.mark.parametrize("kind", sorted(CONFIG_LOADERS))
def test_config_invalid_utf8_names_offset_and_line(kind, tmp_path):
    loader, text = CONFIG_LOADERS[kind]
    path = tmp_path / kind
    path.write_bytes(b"# caf\xc3\xa9\n\xff" + text.encode("utf-8"))
    with pytest.raises(FormatError, match=r"invalid UTF-8 at byte offset 8 \(line 2\)"):
        loader(path, CONFIG_TAGS)


@pytest.mark.parametrize("kind", sorted(CONFIG_LOADERS))
def test_config_indented_comments_and_crlf_are_skipped(kind, tmp_path):
    loader, text = CONFIG_LOADERS[kind]
    path = tmp_path / kind
    path.write_bytes(("  # note\r\n\t# tabbed note\n" + text.replace("\n", "\r\n")).encode())
    loader(path, CONFIG_TAGS)
