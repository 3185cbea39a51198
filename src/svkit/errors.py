"""Exception types raised by the toolkit, and the seed check that every
seeded function shares.

Everything derives from SvkitError so callers (and the CLI) can catch
data-level failures in one place.
"""

import operator


class SvkitError(Exception):
    """Base class for all toolkit errors."""


# embedding containers / file formats

class ZeroVector(SvkitError):
    def __init__(self, utt_id):
        super().__init__(f"embedding '{utt_id}' has zero norm")
        self.utt_id = utt_id


class BadMagic(SvkitError):
    pass


class DimMismatch(SvkitError):
    pass


class DuplicateId(SvkitError):
    pass


class TruncatedFile(SvkitError):
    pass


# scoring

class MissingLabel(SvkitError):
    def __init__(self, utt_id):
        super().__init__(f"utterance '{utt_id}' has no speaker label")
        self.utt_id = utt_id


class UnknownId(SvkitError):
    pass


class DegenerateCohort(SvkitError):
    pass


class MisalignedTrials(SvkitError):
    pass


# calibration

class InsufficientData(SvkitError):
    def __init__(self, trial_class, detail=""):
        msg = f"cannot fill trial class '{trial_class}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.trial_class = trial_class


class MissingMeta(SvkitError):
    def __init__(self, utt_id):
        super().__init__(f"no metadata for utterance '{utt_id}'")
        self.utt_id = utt_id


class TopNTooLarge(SvkitError):
    pass


class ArityMismatch(SvkitError):
    pass


# metrics

class OneClassOnly(SvkitError):
    pass


class IdMismatch(SvkitError):
    pass


# clustering

class KTooLarge(SvkitError):
    pass


class EmptyInput(SvkitError):
    pass


class IdSetChanged(SvkitError):
    pass


# training math

class NonUnitInput(SvkitError):
    pass


class EmptyQueue(SvkitError):
    pass


class LengthMismatch(SvkitError):
    pass


class CropTooLong(SvkitError):
    pass


def check_seed(seed):
    """`seed`, if it is a non-negative integer (numpy integers too)."""
    if not (hasattr(seed, "__index__") and operator.index(seed) >= 0):
        raise SvkitError(f"seed={seed} must be a non-negative integer")
    return seed
