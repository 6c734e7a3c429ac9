"""Reference transducer machinery: exact loss, decoding, streaming masks."""

from .lattice import RnntLattice, log_softmax, random_lattice
from .loss import rnnt_logprob, brute_force_logprob, rnnt_grad
from .decode import greedy_decode, beam_decode
from .lm import NgramLm, build_lm
from .mask import MaskSpec, make_stream_mask, receptive_field

__all__ = [
    "RnntLattice",
    "log_softmax",
    "random_lattice",
    "rnnt_logprob",
    "brute_force_logprob",
    "rnnt_grad",
    "greedy_decode",
    "beam_decode",
    "NgramLm",
    "build_lm",
    "MaskSpec",
    "make_stream_mask",
    "receptive_field",
]
