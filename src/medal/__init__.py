"""Search-based inference for masked-diffusion decoding.

Confidence-guided MCTS proposes high-information unmasking prefixes; a
confidence-scored finishing loop commits the rest. The theory module checks
the entropy-gap machinery behind the schedule objective exactly on tabular
toys.
"""

from .decoder import (
    DecodeConfig,
    DecodeResult,
    decode,
    decode_greedy_baseline,
    finish_decode,
    replay_reveals,
)
from .denoisers import (
    CountingDenoiser,
    Denoiser,
    DenoiserOutput,
    FactorizedModel,
    NGramMaskedModel,
    RemoteDenoiser,
    TabularModel,
    fit_ngram,
    load_corpus,
    serve_denoiser,
)
from .errors import MedalError
from .mcts import CandidatePool, SearchConfig, run_cgmcts
from .scoring import ActionCandidates, build_candidates
from .seqcore import SeqState, UnmaskAction, Vocab, apply_action
from .theory import (
    ScheduleCost,
    oracle_min_schedule,
    schedule_cost,
    verify_lemma1,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "ActionCandidates",
    "CandidatePool",
    "CountingDenoiser",
    "DecodeConfig",
    "DecodeResult",
    "Denoiser",
    "DenoiserOutput",
    "FactorizedModel",
    "MedalError",
    "NGramMaskedModel",
    "RemoteDenoiser",
    "ScheduleCost",
    "SearchConfig",
    "SeqState",
    "TabularModel",
    "UnmaskAction",
    "Vocab",
    "apply_action",
    "build_candidates",
    "decode",
    "decode_greedy_baseline",
    "finish_decode",
    "fit_ngram",
    "load_corpus",
    "oracle_min_schedule",
    "replay_reveals",
    "run_cgmcts",
    "schedule_cost",
    "serve_denoiser",
    "verify_lemma1",
    "verify_theorem1",
]
