import io

import pytest
from hypothesis import given, settings, strategies as st

from hmmtagger import tagset
from hmmtagger.corpusio import (
    default_abbreviations,
    read_pretokenized,
    read_tagged,
    tokenize_raw,
    write_pretokenized,
    write_tagged,
)
from hmmtagger.errors import DataError, FormatError, TaggerError
from hmmtagger.tagset import load_tagset
from oracles import plain_read_pretokenized, plain_read_tagged


class TestReadPretokenized:
    def test_two_token_sentence(self):
        sents = list(read_pretokenized(io.StringIO("Der\nHund\n\n")))
        assert sents == [["Der", "Hund"]]

    def test_consecutive_blank_lines_collapse(self):
        sents = list(read_pretokenized(io.StringIO("a\n\n\nb\n")))
        assert sents == [["a"], ["b"]]

    def test_trailing_sentence_closed_at_eof(self):
        sents = list(read_pretokenized(io.StringIO("a\nb")))
        assert sents == [["a", "b"]]

    def test_empty_input(self):
        assert list(read_pretokenized(io.StringIO(""))) == []

    def test_crlf_equals_lf(self):
        lf = list(read_pretokenized(io.BytesIO("Der\nHund\n\nbellt\n".encode())))
        crlf = list(read_pretokenized(io.BytesIO("Der\r\nHund\r\n\r\nbellt\r\n".encode())))
        assert lf == crlf

    def test_hash_is_a_token_not_a_comment(self):
        sents = list(read_pretokenized(io.StringIO("#\nx\n")))
        assert sents == [["#", "x"]]

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\n\xff\xfe\n")
        with pytest.raises(FormatError, match="byte offset 3"):
            list(read_pretokenized(path))

    def test_invalid_utf8_far_into_a_large_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(b"w%06d\r\n" % i for i in range(30000)) + b"ok\xff\n")
        with pytest.raises(FormatError, match=r"byte offset 270002 \(line 30001\)"):
            list(read_pretokenized(path))
        path.write_bytes(b"".join(b"w%06d\r\n" % i for i in range(30000)) + b"last")
        sents = list(read_pretokenized(path))
        assert len(sents) == 1 and len(sents[0]) == 30001
        assert sents[0][:2] == ["w000000", "w000001"] and sents[0][-1] == "last"

    @pytest.mark.parametrize("text, line", [
        ("w000a\tx\n", 1), ("Der\nHund\n\n\t\n", 4), ("a\r\nb\tc\r\n", 2)])
    def test_token_with_a_tab_names_its_line(self, text, line):
        # tagged output separates its columns with TAB, so such a token
        # could not be read back
        with pytest.raises(FormatError, match=rf"^line {line}: token .* holds a TAB$"):
            list(read_pretokenized(io.BytesIO(text.encode())))

    def test_round_trip_with_writer(self):
        sents = [["Der", "Hund"], ["bellt", ".", "#"]]
        buf = io.StringIO()
        write_pretokenized(buf, sents)
        back = list(read_pretokenized(io.StringIO(buf.getvalue())))
        assert back == sents


class TestTokenizeRaw:
    def test_sentence_final_period_detached(self):
        sents = list(tokenize_raw(io.StringIO("Der Hund bellt.")))
        assert sents == [["Der", "Hund", "bellt", "."]]

    def test_abbreviation_keeps_period(self):
        sents = list(tokenize_raw(io.StringIO("z.B. heute"), abbreviations={"z.B."}))
        assert sents == [["z.B.", "heute"]]

    def test_bundled_abbreviation_list(self):
        assert "z.B." in default_abbreviations()
        sents = list(tokenize_raw(io.StringIO("z.B. heute")))
        assert sents == [["z.B.", "heute"]]

    def test_empty_input(self):
        assert list(tokenize_raw(io.StringIO(""))) == []

    def test_multiple_sentences(self):
        sents = list(tokenize_raw(io.StringIO("Er kam. Sie ging!")))
        assert sents == [["Er", "kam", "."], ["Sie", "ging", "!"]]

    def test_comma_detached_without_break(self):
        sents = list(tokenize_raw(io.StringIO("Der Hund, die Katze.")))
        assert sents == [["Der", "Hund", ",", "die", "Katze", "."]]

    def test_stacked_punctuation(self):
        sents = list(tokenize_raw(io.StringIO("(Er bellt.)")))
        assert sents == [["(Er", "bellt", ".", ")"]]

    def test_bare_punctuation_token(self):
        sents = list(tokenize_raw(io.StringIO("a . b")))
        assert sents == [["a", "."], ["b"]]

    def test_deterministic(self):
        text = "Der Hund bellt. Die Katze, z.B. heute, schläft!"
        a = list(tokenize_raw(io.StringIO(text)))
        b = list(tokenize_raw(io.StringIO(text)))
        assert a == b


class TestTagged:
    @pytest.fixture()
    def ts(self):
        return load_tagset(io.StringIO("ART\tarticle\nNN\tnoun\n$.\tstop\n"))

    def test_single_token(self, ts):
        sents = list(read_tagged(io.StringIO("Der\tART\n"), ts))
        assert len(sents) == 1
        assert sents == [[("Der", ts.tag_id("ART"))]]

    @pytest.mark.parametrize("text", [
        "Der\tART\nHund\tNN\n\n#\tNN\n.\t$.\n\n",
        "Der\tART\tART+NN\nHund\tNN\tNN\n\n#\tNN\tART+NN\n.\t$.\t$.\n\n",
    ], ids=["two-column", "three-column"])
    def test_round_trip_identity(self, ts, text):
        sents = list(read_tagged(io.StringIO(text), ts))
        buf = io.StringIO()
        write_tagged(buf, sents, ts)
        assert buf.getvalue() == text
        again = list(read_tagged(io.StringIO(buf.getvalue()), ts))
        assert again == sents

    def test_write_accepts_plain_pairs(self, ts):
        buf = io.StringIO()
        write_tagged(buf, [[("Der", 0), ("Hund", 1)]], ts)
        assert buf.getvalue() == "Der\tART\nHund\tNN\n\n"

    def test_space_instead_of_tab_rejected(self, ts):
        with pytest.raises(FormatError, match="line 1"):
            list(read_tagged(io.StringIO("Der ART\n"), ts))

    def test_unknown_tag_names_line(self, ts):
        with pytest.raises(DataError, match="line 2"):
            list(read_tagged(io.StringIO("Der\tART\nHund\tNOPE\n"), ts))

    def test_class_signature_column_accepted(self, ts):
        sents = list(read_tagged(io.StringIO("Der\tART\tART+NN\nHund\tNN\tNN\n"), ts))
        assert sents == [[("Der", ts.tag_id("ART"), "ART+NN"), ("Hund", ts.tag_id("NN"), "NN")]]

    @pytest.mark.parametrize("signature", ["NN", "ART+NOPE", "", "ART\tNN"])
    def test_bad_third_column_names_line(self, ts, signature):
        with pytest.raises(FormatError, match="line 2"):
            list(read_tagged(io.StringIO(f"Der\tART\nHund\tART\t{signature}\n"), ts))

    @pytest.mark.parametrize("text", ["x\tART\ny\tNN\tART+NN\n",
                                      "x\tART\tART+NN\ny\tNN\n"], ids=["2-3", "3-2"])
    def test_sentence_mixing_column_counts_names_line(self, ts, text):
        with pytest.raises(FormatError, match="line 2: sentence mixes two- and three-column"):
            list(read_tagged(io.StringIO(text), ts))

    def test_empty_token_rejected(self, ts):
        with pytest.raises(FormatError):
            list(read_tagged(io.StringIO("\tART\n"), ts))

    def test_blank_lines_separate_sentences(self, ts):
        sents = list(read_tagged(io.StringIO("Der\tART\n\n\nHund\tNN\n"), ts))
        assert len(sents) == 2

    def test_file_round_trip(self, ts, tmp_path):
        path = tmp_path / "c.tagged"
        write_tagged(path, [[("Der", 0)], [("Hund", 1), (".", 2)]], ts)
        sents = list(read_tagged(path, ts))
        assert sents == [[("Der", 0)], [("Hund", 1), (".", 2)]]


_TAGS = load_tagset(io.StringIO("ART\tarticle\nNN\tnoun\n$.\tstop\n"))
_LABELS = ["ART", "NN", "$."]
_WORDS = ["Der", "Hund", "#", ".", "größer", "a b"]


def _no_tab(line):
    return line.split(b"\t")[0]


def _empty_token(line):
    return b"\t" + line.split(b"\t", 1)[1]


def _unknown_tag(line):
    return line.split(b"\t")[0] + b"\tNOPE"


def _other_width(line):  # two columns become three and three two
    fields = line.split(b"\t")
    return b"\t".join(fields[:2] + ([fields[1]] if len(fields) == 2 else []))


def _bad_byte(line):
    return line + b"\xff"


_TAGGED_FAULTS = [_no_tab, _empty_token, _unknown_tag, _other_width, _other_width, _bad_byte,
                  lambda line: line.split(b"\t")[0] + b"\tART\tNN",  # lacks its tag
                  lambda line: line.split(b"\t")[0] + b"\tART\tART+NOPE",
                  lambda line: line.split(b"\t")[0] + b"\tART\tART\tNN"]
_UNTAGGED_FAULTS = [_bad_byte, lambda line: line + b"\tx", lambda line: b"\t" + line]


@st.composite
def _corpora(draw, tagged):
    """A corpus file's bytes: sentences of two or three columns (or words),
    runs of blank lines, LF and CRLF endings, maybe no final line break,
    and up to two broken lines."""
    lines = [b""] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([2, 3]))
        for _ in range(draw(st.sampled_from([1, 2, 3, 4, 5]))):
            line = draw(st.sampled_from(_WORDS))
            if tagged:
                tag = draw(st.sampled_from(_LABELS))
                line += f"\t{tag}"
                if width == 3:
                    others = draw(st.lists(st.sampled_from(_LABELS), max_size=2))
                    line += "\t" + "+".join(draw(st.permutations([tag, *others])))
            lines.append(line.encode())
        lines += [b""] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        while lines and not lines[-1]:
            lines.pop()
    tokens = [i for i, line in enumerate(lines) if line]
    for _ in range(min(draw(st.integers(0, 2)), len(tokens))):
        i = draw(st.sampled_from(tokens))
        tokens.remove(i)
        lines[i] = draw(st.sampled_from(_TAGGED_FAULTS if tagged else _UNTAGGED_FAULTS))(lines[i])
    ends = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def _outcome(read, data):
    try:
        return list(read(io.BytesIO(data)))
    except TaggerError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "pretokenized"])
@settings(deadline=None, derandomize=True, max_examples=300)
@given(data=st.data())
def test_block_parsers_match_the_line_readers(tagged, data):
    """Sentences, or the exception type and message, equal those of reading
    one line at a time, at block sizes that cut sentences, and lines, at
    every edge."""
    text = data.draw(_corpora(tagged))
    if tagged:
        read, plain = (lambda f: read_tagged(f, _TAGS)), (lambda f: plain_read_tagged(f, _TAGS))
    else:
        read, plain = read_pretokenized, plain_read_pretokenized
    want = _outcome(plain, text)
    with pytest.MonkeyPatch.context() as mp:
        for size in (1, 7, 64, tagset._BLOCK_SIZE):
            mp.setattr(tagset, "_BLOCK_SIZE", size)
            assert _outcome(read, text) == _outcome(plain, text), size
    assert _outcome(read, text) == want
