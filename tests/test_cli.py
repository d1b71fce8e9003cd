import json
import os
import re

import numpy as np
import pytest

from hmmtagger import cli, tagset
from hmmtagger import model as model_module
from hmmtagger.cli import main
from hmmtagger.corpusio import class_signatures, read_tagged, write_tagged
from hmmtagger.evaluation import load_major_classes, profile_report
from hmmtagger.lexicon import (ClassStore, classify, default_lexicon_text, default_rules_text,
                               load_lexicon)
from hmmtagger.model import load_model
from hmmtagger.synth import make_benchmark
from hmmtagger.tagset import load_tagset


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """A small synthetic benchmark written through the synth subcommand."""
    root = tmp_path_factory.mktemp("bench")
    prefix = str(root / "b")
    code = main(["synth", "--tags", "5", "--classes", "12", "--tokens", "3000",
                 "--seed", "42", "--out-prefix", prefix])
    assert code == 0
    return prefix


def paths(prefix):
    return {ext: f"{prefix}.{ext}" for ext in ("tags", "lex", "rules", "model", "gold", "txt")}


class TestSynthCommand:
    def test_writes_all_artifacts(self, bench_dir):
        for path in paths(bench_dir).values():
            assert os.path.isfile(path)

    def test_seed_determinism_bytes(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for prefix in (a, b):
            assert main(["synth", "--tags", "4", "--classes", "9", "--tokens", "500",
                         "--seed", "7", "--out-prefix", prefix]) == 0
        for ext in ("tags", "lex", "rules", "model", "gold", "txt"):
            with open(f"{a}.{ext}", "rb") as fa, open(f"{b}.{ext}", "rb") as fb:
                assert fa.read() == fb.read(), ext

    def test_untagged_and_gold_agree_with_the_lexicon(self, bench_dir):
        p = paths(bench_dir)
        with open(p["txt"], encoding="utf-8") as txt, open(p["gold"], encoding="utf-8") as gold:
            assert txt.read() == re.sub(r"\t.*", "", gold.read())
        ts = load_tagset(p["tags"])
        store = ClassStore()
        lex = load_lexicon(p["lex"], ts, store)
        sentences = list(read_tagged(p["gold"], ts))
        assert sentences
        for sentence in sentences:
            for pair in sentence:
                assert type(pair) is tuple and [type(x) for x in pair] == [str, int]
                word, tag = pair
                assert tag in store[lex[word]]

    def test_generator_model_loads(self, bench_dir):
        p = paths(bench_dir)
        ts = load_tagset(p["tags"])
        assert load_model(p["model"], ts).n_tags == 5

    def test_dimension_checks(self, tmp_path, capsys):
        assert main(["synth", "--tags", "5", "--classes", "4", "--tokens", "10",
                     "--seed", "1", "--out-prefix", str(tmp_path / "x")]) == 1
        assert "classes" in capsys.readouterr().err

    def test_writes_the_tagged_corpus_of_make_benchmark(self, tmp_path):
        # one generator: the files of `synth` hold make_benchmark's tagged
        # corpus, whatever numbers the installed numpy draws
        prefix = str(tmp_path / "g")
        assert main(["synth", "--tags", "6", "--classes", "15", "--tokens", "700",
                     "--seed", "3", "--ambiguity", "1.8", "--max-class-size", "3",
                     "--out-prefix", prefix]) == 0
        bench = make_benchmark(3, 6, 15, train_tokens=0, tagged_tokens=700,
                               heldout_tokens=0, ambiguity=1.8, max_class_size=3)
        p = paths(prefix)
        ts = load_tagset(p["tags"])
        store = ClassStore()
        lex = load_lexicon(p["lex"], ts, store)
        sentences = list(read_tagged(p["gold"], ts))
        assert sentences == bench.tagged_text
        assert [[(tag, lex[word]) for word, tag in s] for s in sentences] \
            == bench.train_tagged
        assert tuple(store) == bench.class_members
        assert max(map(len, bench.class_members)) == 3

    def test_max_class_size_below_two_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--tags", "5", "--classes", "12", "--tokens", "10",
                     "--seed", "1", "--max-class-size", "1",
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert "max_class_size" in capsys.readouterr().err

    @pytest.mark.parametrize("ambiguity", ["nan", "inf"])
    def test_non_finite_ambiguity_is_usage_error(self, tmp_path, capsys, ambiguity):
        assert main(["synth", "--tags", "5", "--classes", "12", "--tokens", "10",
                     "--seed", "1", "--ambiguity", ambiguity,
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert "ambiguity" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_manifest_echoed(self, tmp_path, capsys):
        assert main(["synth", "--tags", "3", "--classes", "6", "--tokens", "50",
                     "--seed", "1", "--out-prefix", str(tmp_path / "m")]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("manifest "))
        doc = json.loads(line.split(" ", 1)[1])
        assert doc["subcommand"] == "synth"
        assert doc["options"]["seed"] == 1


class TestTrainCommand:
    def test_counted_only(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        out = str(tmp_path / "c.model")
        code = main(["train", "--regime", "counted-only", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--tagged", p["gold"], "--out", out])
        assert code == 0
        ts = load_tagset(p["tags"])
        load_model(out, ts)
        assert os.path.isfile(out + ".log")

    def test_tagged_corpus_may_carry_the_class_column(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        ts = load_tagset(p["tags"])
        store = ClassStore()
        lex = load_lexicon(p["lex"], ts, store)
        signatures = class_signatures(ts, store)
        with_class = str(tmp_path / "gold3")
        write_tagged(with_class, [[(w, t, signatures[lex[w]]) for w, t in s]
                                  for s in read_tagged(p["gold"], ts)], ts)
        models = []
        for i, tagged in enumerate((p["gold"], with_class)):
            out = tmp_path / f"{i}.model"
            assert main(["train", "--regime", "counted-only", "--tagset", p["tags"],
                         "--lexicon", p["lex"], "--rules", p["rules"],
                         "--tagged", tagged, "--out", str(out)]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_counted_only_with_iters_is_usage_error(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        code = main(["train", "--regime", "counted-only", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--tagged", p["gold"], "--iters", "5",
                     "--out", str(tmp_path / "x.model")])
        assert code == 1
        assert "--iters" in capsys.readouterr().err

    @pytest.mark.parametrize("regime, data", [("counted", ["--corpus", "txt"]),
                                              ("counted-only", [])])
    def test_missing_tagged_is_usage_error(self, bench_dir, tmp_path, capsys, regime, data):
        p = paths(bench_dir)
        code = main(["train", "--regime", regime, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     *[p.get(a, a) for a in data], "--out", str(tmp_path / "x.model")])
        captured = capsys.readouterr()
        assert code == 1
        assert "--tagged" in captured.err
        assert captured.out == ""

    def test_counted_only_with_zero_iters_is_accepted(self, bench_dir, tmp_path):
        # zero iterations is what counted-only runs anyway
        p = paths(bench_dir)
        out = str(tmp_path / "c.model")
        code = main(["train", "--regime", "counted-only", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--tagged", p["gold"], "--iters", "0", "--out", out])
        assert code == 0
        load_model(out, load_tagset(p["tags"]))

    def test_bias_regime_writes_trajectory(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        out = str(tmp_path / "b.model")
        log = str(tmp_path / "b.log")
        code = main(["train", "--regime", "bias", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--corpus", p["txt"], "--iters", "3", "--out", out, "--log", log])
        assert code == 0
        with open(log, encoding="utf-8") as f:
            rows = [line for line in f if line.strip() and not line.startswith("#")]
        assert len(rows) == 3
        lls = [float(r.split("\t")[1]) for r in rows]
        assert lls == sorted(lls)  # non-decreasing trajectory

    def test_counted_regime_defaults_to_one_iteration(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        out = str(tmp_path / "h.model")
        code = main(["train", "--regime", "counted", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--tagged", p["gold"], "--corpus", p["txt"], "--out", out])
        assert code == 0
        with open(out + ".log", encoding="utf-8") as f:
            rows = [line for line in f if line.strip() and not line.startswith("#")]
        assert len(rows) == 1

    @pytest.mark.parametrize("flag, value", [("--iters", "-1"), ("--smoothing", "-1"),
                                             ("--smoothing", "nan"), ("--smoothing", "inf")])
    def test_bad_iters_or_smoothing_is_usage_error(self, bench_dir, tmp_path, capsys,
                                                   flag, value):
        p = paths(bench_dir)
        out = tmp_path / "x.model"
        code = main(["train", "--regime", "bias", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"], "--corpus", p["txt"],
                     flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert flag in captured.err
        assert captured.out == ""  # rejected before the manifest and before any read
        assert not out.exists()

    def test_missing_required_input_is_usage_error(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        code = main(["train", "--regime", "bias", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--out", str(tmp_path / "x.model")])
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("regime, data", [("counted", ["--tagged", "gold", "--corpus", "txt"]),
                                              ("counted-only", ["--tagged", "gold"])])
    def test_biases_without_bias_regime_is_usage_error(self, bench_dir, tmp_path, capsys,
                                                       regime, data):
        p = paths(bench_dir)
        biases = tmp_path / "b.biases"
        biases.write_text("TRANS T00 T01 2\n", encoding="utf-8")
        code = main(["train", "--regime", regime, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"], "--biases", str(biases),
                     *[p.get(a, a) for a in data], "--out", str(tmp_path / "x.model")])
        assert code == 1
        assert "--biases" in capsys.readouterr().err

    def test_nonexistent_input_is_usage_error(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        code = main(["train", "--regime", "bias", "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--corpus", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "x.model")])
        assert code == 1


@pytest.fixture(scope="module")
def trained(bench_dir, tmp_path_factory):
    p = paths(bench_dir)
    out = str(tmp_path_factory.mktemp("model") / "t.model")
    assert main(["train", "--regime", "counted-only", "--tagset", p["tags"],
                 "--lexicon", p["lex"], "--rules", p["rules"],
                 "--tagged", p["gold"], "--out", out]) == 0
    return out


class TestTagCommand:

    def test_tags_pretokenized_input(self, bench_dir, trained, tmp_path):
        p = paths(bench_dir)
        out = str(tmp_path / "out.tagged")
        code = main(["tag", "--model", trained, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--pretokenized", p["txt"], out])
        assert code == 0
        ts = load_tagset(p["tags"])
        tagged = list(read_tagged(out, ts))
        with open(p["txt"], encoding="utf-8") as f:
            untagged = [line for line in f if line.strip()]
        assert sum(len(s) for s in tagged) == len(untagged)

    def test_with_class_column(self, bench_dir, trained, tmp_path):
        p = paths(bench_dir)
        src = tmp_path / "in.txt"
        src.write_text("w000a\nw001a\n\n", encoding="utf-8")
        out = str(tmp_path / "out.tagged")
        code = main(["tag", "--model", trained, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--pretokenized", "--with-class", str(src), out])
        assert code == 0
        with open(out, encoding="utf-8") as f:
            lines = [l for l in f.read().splitlines() if l]
        assert all(len(l.split("\t")) == 3 for l in lines)
        assert lines[0].split("\t")[2] == "T00"

    def test_missing_model_file_is_usage_error(self, bench_dir, tmp_path):
        p = paths(bench_dir)
        code = main(["tag", "--model", str(tmp_path / "no.model"),
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--pretokenized",
                     p["txt"], str(tmp_path / "out.tagged")])
        assert code == 1

    def test_a_failed_run_leaves_the_output_as_it_was(self, bench_dir, trained, tmp_path,
                                                      capsys, monkeypatch):
        # small blocks and chunks, so that many chunks are decoded and
        # written before the reader reaches the TAB token on the last line
        monkeypatch.setattr(tagset, "_BLOCK_SIZE", 512)
        monkeypatch.setattr(model_module, "CHUNK_CELLS", 64)
        p = paths(bench_dir)
        with open(p["txt"], encoding="utf-8") as f:
            text = f.read()
        src, out = tmp_path / "in.txt", tmp_path / "out.tagged"
        src.write_text(text * 3 + "w000a\tx\n", encoding="utf-8")
        args = ["tag", "--model", trained, "--tagset", p["tags"], "--lexicon", p["lex"],
                "--rules", p["rules"], "--pretokenized", str(src), str(out)]
        for before in (None, b"an earlier output\n"):
            if before is not None:
                out.write_bytes(before)
            assert main(args) == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"error: line {3 * text.count(chr(10)) + 1}: token 'w000a\\tx' holds a TAB")
            assert (out.read_bytes() if out.exists() else None) == before
            assert sorted(os.listdir(tmp_path)) == sorted(["in.txt"] + ["out.tagged"] * bool(before))
        # a run that succeeds replaces the output, with the permissions a new file gets
        src.write_text(text, encoding="utf-8")
        out.unlink()
        assert main(args) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask
        assert [w for s in read_tagged(out, load_tagset(p["tags"])) for w, _ in s] == text.split()
        # and keeps the permissions of an output that existed before
        os.chmod(out, 0o604)
        assert main(args) == 0
        assert os.stat(out).st_mode & 0o777 == 0o604

    def test_unambiguous_input_forces_gold(self, bench_dir, trained, tmp_path):
        # tokens of singleton classes decode to their only member, whatever
        # the model parameters
        p = paths(bench_dir)
        ts = load_tagset(p["tags"])
        src = tmp_path / "in.txt"
        src.write_text("w002a\nw001b\nw003c\n\n", encoding="utf-8")
        out = str(tmp_path / "out.tagged")
        assert main(["tag", "--model", trained, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--pretokenized", str(src), out]) == 0
        tags = [tag for s in read_tagged(out, ts) for _, tag in s]
        assert tags == [2, 1, 3]


class TestEvalCommand:
    def test_perfect_predictions(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        json_out = str(tmp_path / "report.json")
        code = main(["eval", "--pred", p["gold"], "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major),
                     "--json", json_out])
        assert code == 0
        out = capsys.readouterr().out
        assert "error rate 0.0000" in out
        with open(json_out, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["error_rate"] == 0.0
        assert doc["error_types"] == []
        assert "manifest" in doc

    def test_top_k_limits_rows(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        code = main(["eval", "--pred", p["gold"], "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major),
                     "--top-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        section = out.split("most frequent ambiguous equivalence classes")[1]
        rows = [l for l in section.splitlines()
                if l.startswith(".") or l.startswith("0.")]
        assert len(rows) <= 2 * 2  # both tables obey top-k

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_is_usage_error(self, tmp_path, capsys, top_k):
        # the inputs do not exist: the flag is refused before any file is read
        missing = str(tmp_path / "missing")
        code = main(["eval", "--pred", missing, "--gold", missing, "--tagset", missing,
                     "--lexicon", missing, "--rules", missing, "--major-classes", missing,
                     "--top-k", top_k])
        assert code == 1
        assert capsys.readouterr().err == "usage error: --top-k must be >= 1\n"

    def test_reads_tag_output_with_class_column(self, bench_dir, trained, tmp_path, capsys):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        pred = str(tmp_path / "pred.tagged")
        assert main(["tag", "--model", trained, "--tagset", p["tags"],
                     "--lexicon", p["lex"], "--rules", p["rules"],
                     "--pretokenized", "--with-class", p["txt"], pred]) == 0
        code = main(["eval", "--pred", pred, "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major)])
        assert code == 0
        assert "error rate" in capsys.readouterr().out

    def test_malformed_class_signature_is_exit_2(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        with open(p["gold"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        lines[0] += "\tT00+NOPE"
        pred = tmp_path / "pred.tagged"
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["eval", "--pred", str(pred), "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda sents: sents[:-1], r"prediction has \d+ sentences, gold has \d+$"),
        (lambda sents: sents[:2] + [sents[2][1:]] + sents[3:], "sentence 2: prediction has"),
        (lambda sents: sents[:1] + [["zzz\tT00"] + sents[1][1:]] + sents[2:],
         "sentence 1 token 0: surface 'zzz'"),
    ])
    def test_misaligned_prediction_names_sentence(self, bench_dir, tmp_path, capsys,
                                                  edit, message):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        with open(p["gold"], encoding="utf-8") as f:
            text = f.read()
        sents = [block.splitlines() for block in text.strip("\n").split("\n\n")]
        pred = tmp_path / "pred.tagged"
        pred.write_text("".join("\n".join(s) + "\n\n" for s in edit(sents)), encoding="utf-8")
        code = main(["eval", "--pred", str(pred), "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert re.search(message, err), err

    def test_alignment_error_is_exit_2(self, bench_dir, tmp_path, capsys):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text(
            "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        truncated = tmp_path / "short.gold"
        with open(p["gold"], encoding="utf-8") as f:
            lines = f.read().splitlines()[:3]
        truncated.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        code = main(["eval", "--pred", str(truncated), "--gold", p["gold"],
                     "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--major-classes", str(major)])
        assert code == 2


class TestEvalInBlocks:
    """``eval`` reads both files a block at a time, in lockstep, whatever
    the sentences at which the two files' blocks end."""

    @pytest.fixture()
    def setup(self, bench_dir, trained, tmp_path):
        p = paths(bench_dir)
        major = tmp_path / "major.map"
        major.write_text("".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        pred = str(tmp_path / "pred.tagged")
        assert main(["tag", "--model", trained, "--tagset", p["tags"], "--lexicon", p["lex"],
                     "--rules", p["rules"], "--pretokenized", "--with-class", p["txt"], pred]) == 0
        res = ["--tagset", p["tags"], "--lexicon", p["lex"], "--rules", p["rules"],
               "--major-classes", str(major)]
        return p, pred, res

    def test_report_does_not_depend_on_the_block_size(self, setup, tmp_path, capsys,
                                                      monkeypatch):
        p, pred, res = setup
        gold = tmp_path / "gold.crlf"  # CRLF gold against an LF prediction with classes
        with open(p["gold"], "rb") as f:
            gold.write_bytes(f.read().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        runs = []
        for size in (tagset._BLOCK_SIZE, 1, 7, 64):
            monkeypatch.setattr(tagset, "_BLOCK_SIZE", size)
            report = tmp_path / f"report{size}.json"
            assert main(["eval", "--pred", pred, "--gold", str(gold), *res,
                         "--json", str(report)]) == 0
            doc = json.loads(report.read_text(encoding="utf-8"))
            del doc["manifest"]
            runs.append((capsys.readouterr().out.split("\n", 1)[1], doc))
        assert all(run == runs[0] for run in runs[1:])
        # the library path over whole sentences gives the same report
        ts = load_tagset(p["tags"])
        store = ClassStore()
        lex = load_lexicon(p["lex"], ts, store)
        pred_tags = [[t for _, t, _ in s] for s in read_tagged(pred, ts)]
        gold_sents = list(read_tagged(p["gold"], ts))
        want = profile_report(pred_tags, [[t for _, t in s] for s in gold_sents],
                              [[lex[w] for w, _ in s] for s in gold_sents], store, ts,
                              load_major_classes(setup[2][-1], ts))
        assert runs[0][1] == json.loads(json.dumps(want.to_dict()))

    @pytest.mark.parametrize("size", [1, 7, 64, tagset._BLOCK_SIZE])
    def test_misalignment_is_named_at_every_block_size(self, setup, tmp_path, capsys,
                                                       monkeypatch, size):
        p, pred, res = setup
        with open(pred, encoding="utf-8") as f:
            sents = [block.splitlines() for block in f.read().strip("\n").split("\n\n")]
        n, last = len(sents), len(sents) - 1
        words = [[line.split("\t")[0] for line in s] for s in sents]
        edits = [
            (sents[:-1], f"prediction has {n - 1} sentences, gold has {n}"),
            (sents + [["extra\tT00\tT00"]], f"prediction has {n + 1} sentences, gold has {n}"),
            (sents[:5] + [sents[5][1:]] + sents[6:],
             f"sentence 5: prediction has {len(sents[5]) - 1} tokens, gold has {len(sents[5])}"),
            (sents[:last] + [sents[last][:-1] + ["zzz\tT00\tT00"]],
             f"sentence {last} token {len(sents[last]) - 1}: "
             f"surface 'zzz' != {words[last][-1]!r}"),
            # a surface before a length mismatch in a later sentence is named first
            (sents[:3] + [["zzz\tT00\tT00"] + sents[3][1:]] + sents[4:6] + [sents[6] * 2] + sents[7:],
             f"sentence 3 token 0: surface 'zzz' != {words[3][0]!r}"),
        ]
        monkeypatch.setattr(tagset, "_BLOCK_SIZE", size)
        bad = tmp_path / "bad.tagged"
        for edited, message in edits:
            bad.write_text("".join("\n".join(s) + "\n\n" for s in edited), encoding="utf-8")
            assert main(["eval", "--pred", str(bad), "--gold", p["gold"], *res]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_one_manifest_per_run(bench_dir, tmp_path, capsys, monkeypatch):
    # relative paths in, absolute paths in the manifest; the train log and
    # the eval report hold the printed manifest, keys sorted
    monkeypatch.chdir(tmp_path)
    p = paths(os.path.relpath(bench_dir))
    res = ["--tagset", p["tags"], "--lexicon", p["lex"], "--rules", p["rules"]]
    (tmp_path / "major.map").write_text(
        "".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")

    def printed(argv):
        assert main(argv) == 0
        line = capsys.readouterr().out.split("\n")[0]
        manifest = json.loads(line.removeprefix("manifest "))
        assert line == f"manifest {json.dumps(manifest, sort_keys=True)}"
        files = [*manifest["inputs"].values(), *manifest["outputs"].values()]
        assert len(files) == 7 and all(map(os.path.isabs, files))
        return line

    line = printed(["train", "--regime", "counted", *res, "--tagged", p["gold"],
                    "--corpus", p["txt"], "--out", "m.model", "--log", "t.log"])
    assert (tmp_path / "t.log").read_text(encoding="utf-8").split("\n")[0] == f"# {line}"
    line = printed(["eval", "--pred", p["gold"], "--gold", p["gold"], *res,
                    "--major-classes", "major.map", "--json", "r.json"])
    doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert f"manifest {json.dumps(doc['manifest'])}" == line


def test_run_classification_equals_classify_per_token(german_resources, tmp_path, monkeypatch):
    elwis, ref_store, lex, rules = german_resources
    guessed = []  # the forms the run sends to the guesser

    def counting_classify(run_lex, run_rules, word):
        guessed.append(word)
        return classify(run_lex, run_rules, word)

    monkeypatch.setattr(cli, "classify", counting_classify)
    (tmp_path / "de.lex").write_text(default_lexicon_text(), encoding="utf-8")
    (tmp_path / "de.rules").write_text(default_rules_text(), encoding="utf-8")
    store = ClassStore()
    classes_of = cli._load_resources(
        {"lexicon": str(tmp_path / "de.lex"), "rules": str(tmp_path / "de.rules")}, elwis, store)
    assert list(store) == list(ref_store)
    known = [line.split("\t")[0] for line in default_lexicon_text().splitlines()
             if line and not line.startswith("#")]
    rng = np.random.default_rng(5)
    alphabet = "aäbdeinrstuzAÄBDEINRSTUZ0123456789.,-%$"
    unknown = ["".join(rng.choice(list(alphabet), size=rng.integers(1, 8))) for _ in range(60)]
    pool = [w for words in (known, unknown) for w in words + [w.swapcase() for w in words]]
    sentences = [known] + [[pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 15))]
                           for _ in range(200)]  # most forms repeat, within and across
    for words in sentences:
        got = classes_of(words)
        assert got.dtype == np.intp
        assert got.tolist() == [classify(lex, rules, w) for w in words]
    assert sorted(guessed) == sorted({w for words in sentences for w in words if w not in lex})
    for _ in range(2):  # an empty word is never remembered
        with pytest.raises(ValueError, match="empty word"):
            classes_of(["die", ""])


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("bad", ["missing-directory", "directory"])
    @pytest.mark.parametrize("flag", ["--out", "--log", "output", "--json", "--out-prefix"])
    def test_unwritable_output_is_usage_error(self, bench_dir, trained, tmp_path, capsys,
                                              flag, bad):
        p = paths(bench_dir)
        res = ["--tagset", p["tags"], "--lexicon", p["lex"], "--rules", p["rules"]]
        major = tmp_path / "major.map"
        major.write_text("".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        if bad == "directory":  # synth writes the prefix plus an extension
            (work / ("x.tags" if flag == "--out-prefix" else "x")).mkdir()
            path = str(work / "x")
        else:
            path = str(work / "nodir" / "x")
        train = ["train", "--regime", "counted-only", *res, "--tagged", p["gold"]]
        argv = {
            "--out": train + ["--out", path],
            "--log": train + ["--out", str(work / "m.model"), "--log", path],
            "output": ["tag", "--model", trained, *res, "--pretokenized", p["txt"], path],
            "--json": ["eval", "--pred", p["gold"], "--gold", p["gold"], *res,
                       "--major-classes", str(major), "--json", path],
            "--out-prefix": ["synth", "--tags", "3", "--classes", "6", "--tokens", "50",
                             "--seed", "1", "--out-prefix", path],
        }[flag]
        before = sorted(os.walk(work))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {flag}: ")
        assert sorted(os.walk(work)) == before  # nothing written

    @pytest.mark.parametrize("case", ["tag-input", "tag-hard-link", "train-log",
                                      "train-corpus", "eval-pred"])
    def test_output_that_is_a_file_of_the_run_is_usage_error(self, bench_dir, trained,
                                                             tmp_path, capsys, case):
        p = paths(bench_dir)
        res = ["--tagset", p["tags"], "--lexicon", p["lex"], "--rules", p["rules"]]
        major = tmp_path / "major.map"
        major.write_text("".join(f"T{i:02d} closed\n" for i in range(5)), encoding="utf-8")
        same = tmp_path / "same"
        source = {"train-log": trained, "eval-pred": p["gold"]}.get(case, p["txt"])
        with open(source, "rb") as f:
            before = f.read()
        same.write_bytes(before)
        tag = ["tag", "--model", trained, *res, "--pretokenized", str(same)]
        train = ["train", "--regime", "bias", *res, "--iters", "1"]
        if case == "tag-hard-link":
            os.link(same, tmp_path / "link")
        argv, flag = {
            "tag-input": (tag + [str(same)], "output"),
            "tag-hard-link": (tag + [str(tmp_path / "link")], "output"),
            "train-log": (train + ["--corpus", p["txt"], "--out", str(same), "--log", str(same)],
                          "--log"),
            "train-corpus": (train + ["--corpus", str(same), "--out", str(same)], "--out"),
            "eval-pred": (["eval", "--pred", str(same), "--gold", p["gold"], *res,
                           "--major-classes", str(major), "--json", str(same)], "--json"),
        }[case]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"usage error: {flag}: .* is the same file as --\S+\n", err)
        assert same.read_bytes() == before

    def test_impossible_sentence_is_exit_2(self, tmp_path, capsys):
        # a model with a hard prohibition; input forces the masked transition
        import io

        from hmmtagger.model import BiasSet, TransitionBias, apply_biases, save_model, uniform_model
        from hmmtagger.tagset import load_tagset as lt

        tags = tmp_path / "t.tags"
        tags.write_text("A\ta\nB\tb\n", encoding="utf-8")
        lex = tmp_path / "t.lex"
        lex.write_text("x\tA\ny\tB\n", encoding="utf-8")
        rules = tmp_path / "t.rules"
        rules.write_text("DEFAULT U A\nDEFAULT L A\n", encoding="utf-8")
        ts = lt(str(tags))
        store = ClassStore()
        load_lexicon(str(lex), ts, store)
        model = apply_biases(uniform_model(ts, store),
                             BiasSet([TransitionBias(0, 1, 0.0)], ()))
        model_path = tmp_path / "t.model"
        save_model(model, str(model_path))

        src = tmp_path / "in.txt"
        src.write_text("x\ny\n\n", encoding="utf-8")
        out = str(tmp_path / "out.tagged")
        args = ["tag", "--model", str(model_path), "--tagset", str(tags),
                "--lexicon", str(lex), "--rules", str(rules), "--pretokenized",
                str(src), out]
        assert main(args) == 2
        assert "sentence 0" in capsys.readouterr().err
        assert main(args[:1] + ["--skip-impossible"] + args[1:]) == 0

    def test_duplicate_class_in_model_file_is_exit_2(self, tmp_path, capsys):
        # a model file whose class 2 repeats class 0, its digest recomputed
        import hashlib
        import io
        import struct

        from hmmtagger.model import HmmModel, save_model

        files = {"tags": "A\ta\nB\tb\n", "lex": "x\tA\ny\tB\n",
                 "rules": "DEFAULT U A\nDEFAULT L A\n", "txt": "x\ny\n\n"}
        for ext, text in files.items():
            (tmp_path / f"t.{ext}").write_text(text, encoding="utf-8")
        arg = {ext: str(tmp_path / f"t.{ext}") for ext in files}
        ts = load_tagset(arg["tags"])
        buf = io.BytesIO()
        save_model(HmmModel(ts.labels, [(0,), (1,), (0, 1)], [0.5, 0.5], [[0.5, 0.5]] * 2,
                            [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]), buf)
        blob = buf.getvalue()[:-hashlib.sha256().digest_size]
        start = blob.index(b"\n") + 1 + 4
        (header_len,) = struct.unpack(">I", blob[start - 4:start])
        header = blob[start:start + header_len].replace(b"[[0], [1], [0, 1]]", b"[[0], [1], [0]]")
        blob = blob[:start - 4] + struct.pack(">I", len(header)) + header \
            + blob[start + header_len:]
        (tmp_path / "t.model").write_bytes(blob + hashlib.sha256(blob).digest())
        code = main(["tag", "--model", str(tmp_path / "t.model"), "--tagset", arg["tags"],
                     "--lexicon", arg["lex"], "--rules", arg["rules"], "--pretokenized",
                     arg["txt"], str(tmp_path / "out.tagged")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model file holds an invalid model: class 2 equals class 0"]

    @pytest.mark.parametrize("command", ["tag", "train"])
    def test_pretokenized_token_with_a_tab_is_exit_2(self, bench_dir, trained, tmp_path,
                                                     capsys, command):
        p = paths(bench_dir)
        src = tmp_path / "in.txt"
        src.write_text("w001a\n\nw000a\tx\n", encoding="utf-8")
        res = ["--tagset", p["tags"], "--lexicon", p["lex"], "--rules", p["rules"]]
        out = str(tmp_path / "out")
        if command == "tag":
            args = ["tag", "--model", trained, *res, "--pretokenized", str(src), out]
        else:
            args = ["train", "--regime", "bias", *res, "--corpus", str(src), "--out", out]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: line 3: token 'w000a\\tx' holds a TAB")

    def test_bad_byte_in_lexicon_is_exit_2(self, bench_dir, trained, tmp_path, capsys):
        p = paths(bench_dir)
        lex = tmp_path / "bad.lex"
        lex.write_bytes(b"w000a\tT00\nw001a\tT\xff01\n")
        code = main(["tag", "--model", trained, "--tagset", p["tags"], "--lexicon", str(lex),
                     "--rules", p["rules"], "--pretokenized", p["txt"],
                     str(tmp_path / "out.tagged")])
        assert code == 2
        assert "invalid UTF-8 at byte offset 17 (line 2)" in capsys.readouterr().err

    def test_skip_warning_counts_distinct_sentences(self, tmp_path, capsys):
        # A -> B is prohibited, so the two sentences "x y" are impossible;
        # the warning counts them once, not once per iteration
        files = {"tags": "A\ta\nB\tb\n", "lex": "x\tA\ny\tB\n",
                 "rules": "DEFAULT U A\nDEFAULT L A\n", "biases": "TRANS A B 0\n",
                 "txt": "x\ny\n\nx\nx\n\nx\ny\n\n"}
        for ext, text in files.items():
            (tmp_path / f"t.{ext}").write_text(text, encoding="utf-8")
        arg = {ext: str(tmp_path / f"t.{ext}") for ext in files}
        code = main(["train", "--regime", "bias", "--tagset", arg["tags"],
                     "--lexicon", arg["lex"], "--rules", arg["rules"],
                     "--biases", arg["biases"], "--corpus", arg["txt"], "--iters", "3",
                     "--skip-impossible", "--out", str(tmp_path / "t.model")])
        assert code == 0
        assert "warning: skipped 2 impossible sentence(s)" in capsys.readouterr().err


class TestTagFailuresInsideAChunk:
    """One chunk holds good sentences, an impossible one (a prohibited
    transition) and one with a class the model never saw (the lexicon grew
    after training)."""

    SENTENCES = ["z z w", "x z", "x y", "w z v", "z q x", "z"]

    @pytest.fixture()
    def setup(self, tmp_path):
        from hmmtagger.model import (BiasSet, HmmModel, TransitionBias, apply_biases,
                                     save_model)

        files = {"tags": "A\ta\nB\tb\nC\tc\n", "lex": "x\tA\ny\tB\nz\tA B\nw\tB C\nv\tC\n",
                 "rules": "DEFAULT U A\nDEFAULT L A\n",
                 "txt": "".join("\n".join(s.split()) + "\n\n" for s in self.SENTENCES)}
        for ext, text in files.items():
            (tmp_path / f"t.{ext}").write_text(text, encoding="utf-8")
        (tmp_path / "grown.lex").write_text(files["lex"] + "q\tA C\n", encoding="utf-8")
        arg = {ext: str(tmp_path / f"t.{ext}") for ext in files}
        ts = load_tagset(arg["tags"])
        store = ClassStore()
        load_lexicon(arg["lex"], ts, store)
        rng = np.random.default_rng(3)
        classes = tuple(store)
        emission = np.zeros((3, len(classes)))
        for c, members in enumerate(classes):
            emission[list(members), c] = rng.random(len(members)) + 0.1
        model = apply_biases(
            HmmModel(ts.labels, classes, rng.dirichlet(np.ones(3)),
                     rng.dirichlet(np.ones(3), size=3),
                     emission / emission.sum(axis=1, keepdims=True)),
            BiasSet([TransitionBias(0, 1, 0.0)], ()))  # A -> B
        save_model(model, str(tmp_path / "t.model"))
        args = ["tag", "--model", str(tmp_path / "t.model"), "--tagset", arg["tags"],
                "--lexicon", str(tmp_path / "grown.lex"), "--rules", arg["rules"],
                "--pretokenized", arg["txt"], str(tmp_path / "out.tagged")]
        grown = load_lexicon(str(tmp_path / "grown.lex"), ts,
                             ClassStore.from_members(model.class_members))
        return model, ts, grown, args, tmp_path / "out.tagged"

    def expected(self, model, ts, lex, indices):
        from oracles import brute_viterbi

        text = ""
        for i in indices:
            words = self.SENTENCES[i].split()
            path, _ = brute_viterbi(model, [lex[w] for w in words])
            text += "".join(f"{w}\t{ts.label(t)}\n" for w, t in zip(words, path)) + "\n"
        return text

    def test_skip_impossible_skips_each_by_its_index(self, setup, capsys):
        model, ts, lex, args, out = setup
        assert main(args[:1] + ["--skip-impossible"] + args[1:]) == 0
        assert out.read_text(encoding="utf-8") == self.expected(model, ts, lex, [0, 1, 3, 5])
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning")]
        assert warnings == [
            "warning: sentence 2 skipped: all tag states die at position 1",
            f"warning: sentence 4 skipped: unknown class id {model.n_classes} at position 1",
            "warning: 2 sentence(s) skipped",
        ]

    def test_output_does_not_depend_on_the_chunk_size(self, setup, capsys, monkeypatch):
        # at the default size all six sentences are one chunk; at one cell
        # every sentence is a chunk by itself; a failed run writes no output
        from hmmtagger import model as model_module

        *_, args, out = setup
        default = model_module.CHUNK_CELLS
        for flags, code in ((["--with-class"], 2), (["--skip-impossible"], 0),
                            (["--with-class", "--skip-impossible"], 0)):
            runs = []
            for cells in (default, 1):
                monkeypatch.setattr(model_module, "CHUNK_CELLS", cells)
                out.unlink(missing_ok=True)
                runs.append((main(args[:1] + flags + args[1:]),
                             out.read_bytes() if out.exists() else None,
                             *capsys.readouterr()))
                assert runs[-1][0] == code
            assert runs[0] == runs[1], flags

    def test_without_the_flag_the_first_failing_sentence_is_named(self, setup, capsys):
        *_, args, out = setup
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: sentence 2: all tag states die at position 1"
        # a failed run leaves no partial output, and no temporary file, behind
        assert not out.exists()
        assert not [name for name in os.listdir(out.parent) if name.endswith(".tmp")]
