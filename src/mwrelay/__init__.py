"""Link-level simulation of multi-way massive MIMO decode-and-forward relaying.

The package models K single-antenna users exchanging symbols through an
M-antenna relay and compares two broadcast protocols: the conventional one
(K total slots) and a successive-cancelation scheme that finishes in
ceil((K-1)/2) + 1 slots by letting each user strip known symbols and
zero-force the rest from its residual equations. It provides seeded
Monte Carlo estimators over one batched rate kernel, Jensen closed-form
bounds, large-array asymptotics, the dense zero-forcing stage, and a
symbol-level protocol validator.
"""

from .bounds import (
    BoundReport,
    analytic_sum_se,
    bound_report,
    inverse_norm_moments,
    zf_asymptotic_rate,
)
from .channel import (
    GeometryModel,
    SystemConfig,
    checked_gains,
    draw_gram_block,
    draw_gram_factor,
    draw_large_scale,
    draw_small_scale,
    read_beta_file,
    substream,
    write_beta_file,
)
from .exceptions import InvalidConfigError, SingularSystemError
from .montecarlo import (
    CdfResult,
    LinkEstimate,
    SumSeReport,
    cdf_experiment,
    estimate_link_se,
    resolve_workers,
    sum_se,
    sum_se_once,
)
from .rates import ZfStage, build_zf_stage, relay_precode
from .schedule import (
    SlotIndexer,
    known_set,
    partner_index,
    remaining_unknowns,
    slot_count,
    zf_coefficient_offset,
)
from .validation import (
    NoiselessRound,
    qpsk_frame,
    run_round_noiseless,
    run_round_noisy,
)

__version__ = "0.1.0"
