"""The public API: the names `weblex` exports and how its value types behave."""

import importlib

import pytest

import weblex
from weblex.bpe import BpeModel, apply_bpe, learn_bpe, load_bpe, save_bpe
from weblex.ibm1 import PhrasePair
from weblex.lexicon import Expression
from weblex.segmenter import CandidateSpan
from weblex.textnorm import NormSettings

EXPORTS = {
    "bpe": ["BpeModel", "apply_bpe", "decode_bpe", "learn_bpe", "load_bpe", "save_bpe"],
    "errors": ["ConfigError", "FormatError", "WeblexError"],
    "ibm1": ["PhrasePair", "TranslationTable", "align_best", "build_phb_vocab", "extract_phrases", "load_table",
             "log_likelihood", "save_table", "train_ibm1"],
    "lexicon": ["BuildReport", "Expression", "ExpressionLexicon", "build_lexicon", "load_lexicon", "save_lexicon"],
    "metrics": ["bleu", "char_edit_rate", "char_edit_rates", "chrf", "levenshtein"],
    "segmenter": ["CandidateSpan", "Segmentation", "enumerate_candidates", "filter_subsumed", "segment_words",
                  "select_cover", "tag_segments", "tokenize_web"],
    "textnorm": ["NormSettings", "normalize", "split_words"],
    "vocab": ["Vocabulary", "build_vocab", "load_vocab", "save_vocab"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exported_names():
    assert sorted(weblex.__all__) == sorted(NAMES)
    assert len(set(weblex.__all__)) == len(weblex.__all__)


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_each_name_is_its_module_object(module, name):
    assert getattr(weblex, name) is getattr(importlib.import_module(f"weblex.{module}"), name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from weblex import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(NAMES)
    assert all(namespace[name] is getattr(weblex, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(weblex))


def test_submodules_stay_reachable_as_attributes():
    assert weblex.bpe is importlib.import_module("weblex.bpe")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weblex.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from weblex import no_such_name", {})


# ---- value types

def test_norm_settings_repr_is_stable():
    # the settings-mismatch ConfigError messages embed it
    assert repr(NormSettings()) == "NormSettings(lowercase=False)"
    assert repr(NormSettings(lowercase=True)) == "NormSettings(lowercase=True)"


def test_candidate_spans_sort_by_start_end_then_in_lexicon():
    spans = [CandidateSpan(2, 3), CandidateSpan(0, 2, True), CandidateSpan(0, 2, False), CandidateSpan(0, 1)]
    assert sorted(spans) == [CandidateSpan(0, 1), CandidateSpan(0, 2, False), CandidateSpan(0, 2, True),
                             CandidateSpan(2, 3)]


@pytest.mark.parametrize("value, field", [
    (NormSettings(), "lowercase"),
    (Expression(("a", "b"), "x"), "gloss"),
    (PhrasePair("a", "b", 1), "count"),
    (CandidateSpan(0, 1), "end"),
], ids=["NormSettings", "Expression", "PhrasePair", "CandidateSpan"])
def test_frozen_types_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_frozen_types_keep_value_equality_hashing_and_properties():
    assert Expression(("a",)) == Expression(("a",), None)
    assert len({PhrasePair("a", "b", 2), PhrasePair("a", "b", 2)}) == 1
    assert Expression(("a", "b")).text == "a b"
    assert CandidateSpan(1, 4).length == 3


def test_bpe_model_after_apply_equals_its_reloaded_copy(tmp_path):
    model = learn_bpe(["low lower lowest", "newer newest"], 20)
    save_bpe(model, str(tmp_path / "m.bpe"))
    assert apply_bpe(model, ["lowest"])  # builds the memo, which equality ignores
    loaded = load_bpe(str(tmp_path / "m.bpe"))
    assert model == loaded and loaded == model
    assert model != BpeModel(model.merges[:-1], model.target_size, settings=model.settings)
    assert model != BpeModel(model.merges, model.target_size, settings=NormSettings(lowercase=True))
    assert model != model.merges  # only another model can compare equal
