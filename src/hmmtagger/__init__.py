"""Class-based hidden Markov model part-of-speech tagging toolkit.

Tags are the hidden states; the observations are equivalence classes (the
set of tags a word form can bear, supplied by a lexicon and a guesser for
unknown words).  Models can be trained three ways: bias-seeded
expectation-maximization over untagged text, counted initialization from a
tagged corpus followed by re-estimation, or pure counted estimation.
Decoding is Viterbi; the evaluation module reports error rate, ambiguity
rate, class-frequency and error-type profiles.
"""

from .corpusio import (
    read_pretokenized,
    read_tagged,
    tokenize_raw,
    write_pretokenized,
    write_tagged,
)
from .decoder import Decoding, viterbi
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
    ImpossibleSequenceError,
    ModelChecksumError,
    ModelIOError,
    ModelTagsetMismatchError,
    ModelVersionError,
    TaggerError,
)
from .evaluation import (
    ClassFrequencyEntry,
    ErrorTypeEntry,
    EvalReport,
    MajorClassMap,
    ambiguity_kind,
    ambiguity_rate,
    class_frequency_table,
    default_major_classes,
    error_rate,
    error_type_table,
    load_major_classes,
    profile_report,
)
from .lexicon import (
    ClassStore,
    GuesserRules,
    Lexicon,
    classify,
    guess_class,
    load_guesser_rules,
    load_lexicon,
)
from .model import (
    BiasSet,
    HmmModel,
    SymbolBias,
    TransitionBias,
    apply_biases,
    default_biases,
    load_biases,
    load_model,
    save_model,
    uniform_model,
)
from .tagset import Tag, TagSet, default_tagset, load_tagset
from .training import (
    REGIME_BIAS,
    REGIME_COUNTED,
    REGIME_COUNTED_ONLY,
    SufficientStats,
    TrainingConfig,
    baum_welch,
    counted_init,
    forward_backward,
    train_regime,
)

__version__ = "0.1.0"
