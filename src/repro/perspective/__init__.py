"""Local stand-in for Google's Perspective API (§3.5.2).

The real Perspective API is a closed network service; this package scores
comments locally with the same contract: text in, per-attribute scores in
[0, 1] out.  The score stage calls :class:`PerspectiveModels` through
:class:`~repro.core.scoring.ScoreStore`, which memoises each text's scores.

The scoring models are pure functions of the text (deterministic, like the
real API): they extract lexical features — rates of the offensive, obscene,
rude, and hate vocabulary classes the platform text generator emits, caps
ratio, attack-phrase presence — and invert the generator's emission model
to estimate the latent attribute vector.  The paper treats Perspective as
an opaque black-box scorer and analyses score *distributions*; our models
play the same role with a realistic amount of recovery noise.
"""

from repro.perspective.models import (
    ATTRIBUTES,
    AttributeScorer,
    PerspectiveModels,
    score_comment,
)

__all__ = [
    "ATTRIBUTES",
    "AttributeScorer",
    "PerspectiveModels",
    "score_comment",
]
