"""asrlab: evaluation, curation, and decoding utilities for pseudo-labeled ASR pipelines.

Every name is imported from the module that defines it, e.g.
``from asrlab.metrics import wer``; ``asrlab.transducer`` re-exports its API.
"""

__version__ = "0.1.0"
