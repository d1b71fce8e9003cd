"""Exception types shared across the package."""


class TaggerError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(TaggerError):
    """A configuration file (tag set, lexicon, rules, biases) is invalid."""


class DataError(TaggerError):
    """Corpus data violates a contract (unknown tags, inconsistent gold, ...).

    ``sentence_index``, when known, is the 0-based index of the offending
    sentence in the input it came from.
    """

    def __init__(self, message, sentence_index=None):
        super().__init__(message)
        self.sentence_index = sentence_index

    def at_sentence(self, index):
        """This error for sentence ``index`` of a corpus: the message gains a
        ``sentence {index}: `` prefix."""
        return DataError(f"sentence {index}: {self}", index)


class FormatError(DataError):
    """A data stream is syntactically malformed (bad columns, bad encoding)."""


class AlignmentError(DataError):
    """Predicted and gold corpora do not line up."""


class ImpossibleSequenceError(DataError):
    """No tag path with positive probability exists for a sentence.

    ``position`` is the 0-based index of the first token at which every
    tag state has probability zero.
    """

    def __init__(self, message, position, sentence_index=None):
        super().__init__(message, sentence_index)
        self.position = position

    @classmethod
    def dying_at(cls, position, sentence_index=None):
        """The error for a sentence whose tag states all die at ``position``."""
        message = ("no tag can start this sentence" if position == 0
                   else f"all tag states die at position {position}")
        return cls(message, position, sentence_index)

    def at_sentence(self, index):
        return ImpossibleSequenceError(f"sentence {index}: {self}", self.position, index)


class ModelIOError(TaggerError):
    """A saved model could not be read back."""


class ModelVersionError(ModelIOError):
    """The file is not a model file, or uses an unsupported format version."""


class ModelChecksumError(ModelIOError):
    """The model file is truncated or corrupted."""


class ModelTagsetMismatchError(ModelIOError):
    """The model was saved under a different tag set."""
