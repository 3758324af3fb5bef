"""Linearization and embedding toolkit for countable posets with finiteness oracles."""

from .errors import (
    ClassifierInconsistent,
    CycleError,
    FiniteDomainEnd,
    FormatError,
    HorizonTooSmall,
    MissingPartError,
    NotAnExtension,
    NotInjective,
    NotStabilized,
    OracleMissing,
    PrefixTooShort,
    TaulikeError,
    TooLarge,
    UnknownIdError,
)
from .kinds import BlockSide, FinSide, Kind
from .poset import (
    POSET_SCHEMA,
    CanonicalPoint,
    ExtensionCheck,
    FinitePoset,
    LinearOrder,
    build_poset,
    is_linear_extension,
    poset_from_json_dict,
    poset_to_json_dict,
)
from .streams import (
    STREAM_FAMILIES,
    IdRuns,
    OracleBundle,
    StreamPoset,
    ValidationReport,
    Violation,
    antichain_stream,
    omega_plus_omega_star_stream,
    omega_star_stream,
    omega_stream,
    prefix,
    stream_from_finite,
    take,
    validate_oracles,
    zeta_stream,
)
from .linearize import (
    Block,
    BlockSeq,
    assemble,
    linearize,
    omega_blocks,
    omega_linearize,
    omega_star_linearize,
    split_linearize,
    szpilrajn_extend,
    zeta_linearize,
)
from .embed import (
    EMBEDDING_SCHEMA,
    Embedding,
    embed_omega,
    embed_omega_plus_omega_star,
    embed_omega_star,
    embed_poset,
    embed_zeta,
)
from .gadgets import (
    DecodedFalseStages,
    EmbedGadget,
    FufGadget,
    FunctionSpec,
    RangeGadget,
    StageOrder,
    decode_false_stages,
    decode_range,
    fuf_decode,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    make_stage_order,
    read_false_stages,
)
from .harness import TauReport, check_kinds, check_tau_like, random_poset

__version__ = "0.1.0"
