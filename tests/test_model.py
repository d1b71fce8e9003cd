import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmmtagger.errors import (
    ConfigError,
    ModelChecksumError,
    ModelIOError,
    ModelTagsetMismatchError,
    ModelVersionError,
)
from hmmtagger.model import (
    BiasSet,
    HmmModel,
    SymbolBias,
    TransitionBias,
    apply_biases,
    default_biases,
    load_biases,
    load_model,
    pack,
    save_model,
    uniform_model,
)
from hmmtagger.tagset import Tag, TagSet, load_tagset
from hmmtagger.training import TrainingConfig, baum_welch, counted_init


def tiny_tagset(n):
    return TagSet([Tag(i, f"T{i:02d}") for i in range(n)])


# three-class inventories over 2 tags that break the class-inventory rule
BAD_INVENTORIES = [
    pytest.param([(0,), (), (0, 1)], "class 1 is empty", id="empty"),
    pytest.param([(0,), (1,), (0, 0)], r"class 2 .* repeats a tag: \(0, 0\)", id="repeated-tag"),
    pytest.param([(0, 1), (1,), (1, 0)], "class 2 equals class 0", id="duplicate"),
]


class TestUniformModel:
    def test_two_tags_three_classes(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,), (0, 1)])
        np.testing.assert_allclose(m.emission[0], [0.5, 0.0, 0.5])
        np.testing.assert_allclose(m.emission[1], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(m.initial, [0.5, 0.5])
        np.testing.assert_allclose(m.transition, np.full((2, 2), 0.5))
        m.validate()

    def test_single_tag_single_class(self):
        m = uniform_model(tiny_tagset(1), [(0,)])
        assert m.initial[0] == 1.0
        assert m.transition[0, 0] == 1.0
        assert m.emission[0, 0] == 1.0

    def test_uncovered_tag_rejected(self):
        with pytest.raises(ConfigError, match="T02"):
            uniform_model(tiny_tagset(3), [(0,), (1,), (0, 1)])

    def test_empty_inventory_rejected(self):
        with pytest.raises(ConfigError):
            uniform_model(tiny_tagset(1), [])

    @pytest.mark.parametrize("classes, message", BAD_INVENTORIES)
    def test_bad_class_rejected(self, classes, message):
        with pytest.raises(ConfigError, match=message):
            uniform_model(tiny_tagset(2), classes)

    def test_no_zero_mask(self):
        m = uniform_model(tiny_tagset(2), [(0,), (1,)])
        assert not m.transition_zero_mask.any()


class TestApplyBiases:
    def test_prohibition_masks_and_renormalizes(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        biased = apply_biases(m, BiasSet([TransitionBias(0, 1, 0.0)], ()))
        np.testing.assert_allclose(biased.transition[0], [1.0, 0.0])
        assert biased.transition_zero_mask[0, 1]
        assert not m.transition_zero_mask.any()  # input untouched
        biased.validate()

    def test_unit_weights_are_identity(self):
        ts = tiny_tagset(3)
        m = uniform_model(ts, [(0,), (1,), (2,), (0, 1, 2)])
        every_cell = [TransitionBias(i, j, 1.0) for i in range(3) for j in range(3)]
        biased = apply_biases(m, BiasSet(every_cell, ()))
        np.testing.assert_array_equal(biased.transition, m.transition)
        np.testing.assert_array_equal(biased.emission, m.emission)
        np.testing.assert_array_equal(biased.initial, m.initial)

    def test_symbol_bias_scales_preferred_cell(self):
        # tags A,B,C; classes {A,B,C}, {A}, {B}; bias the big class toward A
        ts = tiny_tagset(3)
        m = uniform_model(ts, [(0, 1, 2), (0,), (1,)])
        biased = apply_biases(m, BiasSet((), [SymbolBias((0, 1, 2), 0, 5.0)]))
        # row A was (1/2, 1/2, 0); the biased cell grows 5x before renormalizing
        np.testing.assert_allclose(biased.emission[0], [5 / 6, 1 / 6, 0.0])
        np.testing.assert_allclose(biased.emission[1], m.emission[1])
        biased.validate()

    def test_unknown_signature_rejected(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        with pytest.raises(ConfigError, match="signature"):
            apply_biases(m, BiasSet((), [SymbolBias((0, 1), 0, 2.0)]))

    def test_unknown_tag_rejected(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        with pytest.raises(ConfigError):
            apply_biases(m, BiasSet([TransitionBias(0, 7, 2.0)], ()))

    def test_prohibition_wins_over_positive_weight(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        biased = apply_biases(m, BiasSet(
            [TransitionBias(0, 1, 9.0), TransitionBias(0, 1, 0.0)], ()))
        assert biased.transition[0, 1] == 0.0
        assert biased.transition_zero_mask[0, 1]

    def test_row_killed_entirely_rejected(self):
        ts = tiny_tagset(1)
        m = uniform_model(ts, [(0,)])
        with pytest.raises(ConfigError, match="no probability mass"):
            apply_biases(m, BiasSet([TransitionBias(0, 0, 0.0)], ()))

    def test_rows_stay_stochastic(self):
        ts = tiny_tagset(3)
        m = uniform_model(ts, [(0,), (1,), (2,), (0, 2)])
        biased = apply_biases(m, BiasSet(
            [TransitionBias(0, 1, 3.5), TransitionBias(2, 0, 0.25)],
            [SymbolBias((0, 2), 2, 7.0)]))
        biased.validate()


class TestBiasFile:
    def test_load_bundled_biases(self, elwis):
        biases = default_biases(elwis)
        assert len(biases.transition_biases) > 0
        assert len(biases.symbol_biases) > 0
        assert any(b.weight == 0 for b in biases.transition_biases)

    def test_trans_and_sym_lines(self, elwis):
        biases = load_biases(io.StringIO(
            "TRANS ART NN 8\nTRANS ART VFIN 0\nSYM NN+NE NN 2\n"), elwis)
        assert len(biases.transition_biases) == 2
        sym = biases.symbol_biases[0]
        assert sym.preferred == elwis.tag_id("NN")

    def test_unknown_tag_rejected(self, elwis):
        with pytest.raises(ConfigError, match="line 1"):
            load_biases(io.StringIO("TRANS ART NOPE 2\n"), elwis)

    def test_negative_weight_rejected(self, elwis):
        for weight in ("-1", "nan", "inf"):  # a weight must also be finite
            with pytest.raises(ConfigError, match="line 1"):
                load_biases(io.StringIO(f"TRANS ART NN {weight}\n"), elwis)

    def test_preferred_outside_signature_rejected(self, elwis):
        with pytest.raises(ConfigError, match="not in the class signature"):
            load_biases(io.StringIO("SYM NN+NE ART 2\n"), elwis)

    def test_zero_symbol_weight_rejected(self, elwis):
        for weight in ("0", "nan", "inf"):  # a weight must also be finite
            with pytest.raises(ConfigError, match="line 1"):
                load_biases(io.StringIO(f"SYM NN+NE NN {weight}\n"), elwis)

    @pytest.mark.parametrize("cls, args", [
        (TransitionBias, (0, 1, float("nan"))),
        (TransitionBias, (0, 1, -0.5)),
        (SymbolBias, ((0, 1), 0, float("inf"))),
        (SymbolBias, ((0, 1), 0, 0.0)),
        (SymbolBias, ((0, 1), 2, 1.0)),
    ])
    def test_bias_values_checked_on_construction(self, cls, args):
        with pytest.raises(ConfigError):
            cls(*args)

    def test_garbage_line_rejected(self, elwis):
        with pytest.raises(ConfigError, match="line 1"):
            load_biases(io.StringIO("WAT NN 2\n"), elwis)


class TestPersistence:
    def test_round_trip_is_bit_exact(self):
        ts = tiny_tagset(3)
        m = apply_biases(
            uniform_model(ts, [(0,), (1,), (2,), (0, 1), (1, 2)]),
            BiasSet([TransitionBias(0, 1, 3.0), TransitionBias(1, 2, 0.0)],
                    [SymbolBias((0, 1), 1, 2.5)]))
        buf = io.BytesIO()
        save_model(m, buf)
        loaded = load_model(io.BytesIO(buf.getvalue()), ts)
        for a, b in ((m.initial, loaded.initial), (m.transition, loaded.transition),
                     (m.emission, loaded.emission)):
            assert np.array_equal(a, b)  # bit-exact, not just close
        assert np.array_equal(m.transition_zero_mask, loaded.transition_zero_mask)
        assert m.class_members == loaded.class_members
        assert m.tag_labels == loaded.tag_labels

    def test_wrong_tagset_rejected(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        buf = io.BytesIO()
        save_model(m, buf)
        with pytest.raises(ModelTagsetMismatchError):
            load_model(io.BytesIO(buf.getvalue()), tiny_tagset(3))

    def test_truncated_file_fails_checksum(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        buf = io.BytesIO()
        save_model(m, buf)
        blob = buf.getvalue()
        with pytest.raises(ModelChecksumError):
            load_model(io.BytesIO(blob[:-5]), ts)

    def test_corrupted_byte_fails_checksum(self):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,)])
        buf = io.BytesIO()
        save_model(m, buf)
        blob = bytearray(buf.getvalue())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ModelChecksumError):
            load_model(io.BytesIO(bytes(blob)), ts)

    def test_not_a_model_file(self):
        with pytest.raises(ModelVersionError):
            load_model(io.BytesIO(b"definitely not a model" * 10), tiny_tagset(1))

    def test_file_path_round_trip(self, tmp_path):
        ts = tiny_tagset(2)
        m = uniform_model(ts, [(0,), (1,), (0, 1)])
        path = tmp_path / "m.model"
        save_model(m, path)
        loaded = load_model(path, ts)
        assert np.array_equal(m.emission, loaded.emission)


def toy_model(**tables):
    """2 tags, classes {0}, {1}, {0, 1}; ``tables`` replaces any table."""
    args = dict(initial=[0.6, 0.4], transition=[[0.5, 0.5], [0.3, 0.7]],
                emission=[[0.5, 0.0, 0.5], [0.0, 0.4, 0.6]])
    args.update(tables)
    members = args.pop("class_members", [(0,), (1,), (0, 1)])
    return HmmModel(tiny_tagset(2).labels, members, **args)


class TestValidation:
    @pytest.mark.parametrize("tables, message", [
        ({"transition": [[0.5, np.nan], [0.3, 0.7]]}, "transition .* NaN"),
        ({"initial": [np.inf, 0.4]}, "initial .* NaN or outside"),
        ({"emission": [[0.5, 0.0, np.nan], [0.0, 0.4, 0.6]]}, "emission .* NaN"),
        ({"class_members": [(0,), (1,), (0, 2)]}, "class 2 .* outside the tag set"),
        ({"class_members": [(0,), (-1,), (0, 1)]}, "class 1 .* outside the tag set"),
    ])
    def test_rejects(self, tables, message):
        with pytest.raises(ValueError, match=message):
            toy_model(**tables).validate()

    @pytest.mark.parametrize("classes, message", BAD_INVENTORIES)
    def test_rejects_bad_class(self, classes, message):
        with pytest.raises(ValueError, match=message):
            toy_model(class_members=classes).validate()

    def test_save_rejects_nan_model(self):
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="transition"):
            save_model(toy_model(transition=[[0.5, np.nan], [0.3, 0.7]]), buf)
        assert buf.getvalue() == b""

    def test_load_rejects_nan_patched_into_file(self):
        buf = io.BytesIO()
        save_model(toy_model(), buf)
        blob = bytearray(buf.getvalue()[:-hashlib.sha256().digest_size])
        magic_len = blob.index(b"\n") + 1
        (header_len,) = struct.unpack(">I", blob[magic_len:magic_len + 4])
        cell = magic_len + 4 + header_len + 2 * 8 + 8  # transition[0, 1]
        blob[cell:cell + 8] = struct.pack("<d", float("nan"))
        blob += hashlib.sha256(blob).digest()
        with pytest.raises(ModelIOError, match="transition"):
            load_model(io.BytesIO(bytes(blob)), tiny_tagset(2))

    @pytest.mark.parametrize("members", [[1.0], ["1"], [True]])
    def test_load_rejects_class_members_patched_into_header(self, members):
        buf = io.BytesIO()
        save_model(toy_model(), buf)
        blob = buf.getvalue()[:-hashlib.sha256().digest_size]
        start = blob.index(b"\n") + 1 + 4
        (header_len,) = struct.unpack(">I", blob[start - 4:start])
        header = json.loads(blob[start:start + header_len])
        header["classes"][1] = members
        text = json.dumps(header).encode()
        blob = blob[:start - 4] + struct.pack(">I", len(text)) + text + blob[start + header_len:]
        blob += hashlib.sha256(blob).digest()
        with pytest.raises(ModelIOError, match="class members"):
            load_model(io.BytesIO(blob), tiny_tagset(2))


def _models():
    ts = tiny_tagset(2)
    uniform = uniform_model(ts, [(0,), (1,), (0, 1)])
    biased = apply_biases(uniform, BiasSet([TransitionBias(0, 1, 0.0)], ()))
    buf = io.BytesIO()
    save_model(biased, buf)
    return {
        "uniform_model": uniform,
        "apply_biases": biased,
        "counted_init": counted_init([[(0, 0), (1, 1)]], ts, [(0,), (1,), (0, 1)]),
        "baum_welch": baum_welch(uniform, [[0, 2, 1]], TrainingConfig(iterations=2))[0],
        "load_model": load_model(io.BytesIO(buf.getvalue()), ts),
    }


@pytest.mark.parametrize("source", ["uniform_model", "apply_biases", "counted_init",
                                    "baum_welch", "load_model"])
@pytest.mark.parametrize("table", ["initial", "transition", "emission", "transition_zero_mask"])
def test_model_tables_are_read_only(source, table):
    array = getattr(_models()[source], table)
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_model_copies_its_tables():
    initial = np.array([0.6, 0.4])
    model = toy_model(initial=initial)
    initial[0] = 0.9
    assert model.initial[0] == 0.6
    for table in model.log_tables():
        assert not table.flags.writeable


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.lists(st.lists(st.integers(-2, 4), max_size=8), max_size=12))
def test_pack_lays_out_exactly_the_valid_sentences(sentences):
    model = uniform_model(tiny_tagset(2), [(0,), (1,), (0, 1)])  # class ids 0-2
    packed = pack(model, sentences)
    valid = [i for i, s in enumerate(sentences) if s and all(0 <= c < 3 for c in s)]
    assert sorted(packed.errors) == sorted(set(range(len(sentences))) - set(valid))
    for i, error in packed.errors.items():
        bad = [(t, c) for t, c in enumerate(sentences[i]) if not 0 <= c < 3]
        assert error.sentence_index == i
        assert str(error) == (f"unknown class id {bad[0][1]} at position {bad[0][0]}" if bad
                              else "sentence must be a non-empty sequence of class ids")

    # every row holds one token of a valid sentence, in chunk order
    assert packed.ids[packed.rows].tolist() == [c for i in valid for c in sentences[i]]
    assert sorted(packed.rows.tolist()) == list(range(packed.ids.size))
    # prev maps each row at t >= 1 to the row of the same sentence at t - 1
    first_rows = int(packed.live[0]) if packed.live.size else 0
    assert packed.prev.size == packed.ids.size - first_rows
    end = 0
    for i in valid:
        rows = packed.rows[end:end + len(sentences[i])].tolist()
        end += len(rows)
        assert [packed.prev[r - first_rows] for r in rows[1:]] == rows[:-1]


@pytest.mark.parametrize("sentence, message", [
    # a uint64 id of 2**63 or more turns negative when cast to intp
    (np.array([1, 2**63 + 5], dtype=np.uint64),
     "unknown class id 9223372036854775813 at position 1"),
    (np.array([0, 2**64 - 1], dtype=np.uint64),
     "unknown class id 18446744073709551615 at position 1"),
    (np.array([0, 3], dtype=np.uint8), "unknown class id 3 at position 1"),
    # numpy reads a list that mixes int64 and uint64 values as float64
    ([1, 2**63 + 5], "class ids must be integers, not float64"),
], ids=["uint64-2**63+5", "uint64-max", "uint8", "list"])
def test_pack_names_a_class_id_as_given(sentence, message):
    model = uniform_model(tiny_tagset(2), [(0,), (1,), (0, 1)])  # class ids 0-2
    packed = pack(model, [[0, 2], sentence])
    assert list(packed.errors) == [1] and str(packed.errors[1]) == message
    assert packed.ids.tolist() == [0, 2]
