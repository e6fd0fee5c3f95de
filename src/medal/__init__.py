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
from .reward import EntropyProfile, RewardRecord, cumulative_gain, entropy_profile, info_gain
from .scoring import ActionCandidates, PositionScore, build_candidates, score_position
from .seqcore import SeqState, UnmaskAction, Vocab, apply_action
from .theory import (
    Schedule,
    ScheduleCost,
    dependence_error,
    entropy_gap,
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
    "EntropyProfile",
    "FactorizedModel",
    "MedalError",
    "NGramMaskedModel",
    "PositionScore",
    "RemoteDenoiser",
    "RewardRecord",
    "Schedule",
    "ScheduleCost",
    "SearchConfig",
    "SeqState",
    "TabularModel",
    "UnmaskAction",
    "Vocab",
    "apply_action",
    "build_candidates",
    "cumulative_gain",
    "decode",
    "decode_greedy_baseline",
    "dependence_error",
    "entropy_gap",
    "entropy_profile",
    "finish_decode",
    "fit_ngram",
    "info_gain",
    "load_corpus",
    "oracle_min_schedule",
    "replay_reveals",
    "run_cgmcts",
    "schedule_cost",
    "score_position",
    "serve_denoiser",
    "verify_lemma1",
    "verify_theorem1",
]
