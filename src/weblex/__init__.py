"""weblex: expression-aware segmentation toolkit for low-resource MT.

Four tokenization strategies over one shared core: plain word splitting,
subword units learned by byte-pair encoding, phrases harvested from word
alignments, and curated multi-word expressions segmented by maximal
lexicon matching, plus vocabulary encoding and corpus-level metrics.
Each public name is imported from its module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bpe": ("BpeModel", "apply_bpe", "decode_bpe", "learn_bpe", "load_bpe", "save_bpe"),
    "errors": ("ConfigError", "FormatError", "WeblexError"),
    "ibm1": ("PhrasePair", "TranslationTable", "align_best", "build_phb_vocab", "extract_phrases", "load_table",
             "log_likelihood", "save_table", "train_ibm1"),
    "lexicon": ("BuildReport", "Expression", "ExpressionLexicon", "build_lexicon", "load_lexicon", "save_lexicon"),
    "metrics": ("bleu", "char_edit_rate", "char_edit_rates", "chrf", "levenshtein"),
    "segmenter": ("CandidateSpan", "Segmentation", "enumerate_candidates", "filter_subsumed", "segment_words",
                  "select_cover", "tag_segments", "tokenize_web"),
    "textnorm": ("NormSettings", "normalize", "split_words"),
    "vocab": ("Vocabulary", "build_vocab", "load_vocab", "save_vocab"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound as an attribute once imported
        return import_module(f"{__name__}.{name}")
    module = next((module for module, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
