import io

import pytest

from hmmtagger.corpusio import (
    default_abbreviations,
    read_pretokenized,
    read_tagged,
    tokenize_raw,
    write_pretokenized,
    write_tagged,
)
from hmmtagger.errors import DataError, FormatError
from hmmtagger.tagset import load_tagset


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
