"""Binary Grassmann/Schubert codes, their binomial ideals, and decoding.

The pipeline: construct a Schubert-code generator matrix over GF(2) via the
Pluecker embedding (:mod:`schubert_gb.schubert`), form the binomial ideal of
the code and compute its reduced degrevlex Groebner basis
(:mod:`schubert_gb.groebner`), then decode received words through canonical
forms (:mod:`schubert_gb.decoding`).  :class:`GroebnerDecoder` wraps the
pipeline in a fit/predict estimator; the ``sgb`` command line exposes it all,
including a verification suite over the bundled reference fixtures.
"""

from .decoding import (
    BSC,
    CrossCheck,
    DecodeOutcome,
    FixedWeight,
    SimReport,
    cross_check,
    gb_decode,
    simulate,
)
from .estimators import GroebnerDecoder, SyndromeTableDecoder
from .groebner import (
    Binomial,
    ReducedGroebnerBasis,
    buchberger,
    capability,
    coset_engine,
    degrevlex_compare,
    ideal_generators,
    is_groebner,
    normal_form,
    reduce_poly,
    spoly,
)
from .linalg import (
    CosetLeaderTable,
    LinearCode,
    build_coset_leader_table,
    min_distance_bruteforce,
    nn_decode,
    parity_check_of,
    rref,
    syndrome,
    syndrome_decode,
    weight_distribution,
)
from .schubert import (
    SchubertParams,
    SchubertSpec,
    bruhat_leq,
    enumerate_schubert_points,
    gaussian_binomial,
    generator_matrix,
    index_tuples,
    plucker,
    schubert_params,
)
from .validation import EnumerationLimitError, NotFittedError

__version__ = "0.1.0"

__all__ = [
    "BSC",
    "Binomial",
    "CosetLeaderTable",
    "CrossCheck",
    "DecodeOutcome",
    "EnumerationLimitError",
    "FixedWeight",
    "GroebnerDecoder",
    "LinearCode",
    "NotFittedError",
    "ReducedGroebnerBasis",
    "SchubertParams",
    "SchubertSpec",
    "SimReport",
    "SyndromeTableDecoder",
    "bruhat_leq",
    "buchberger",
    "build_coset_leader_table",
    "capability",
    "coset_engine",
    "cross_check",
    "degrevlex_compare",
    "enumerate_schubert_points",
    "gaussian_binomial",
    "gb_decode",
    "generator_matrix",
    "ideal_generators",
    "index_tuples",
    "is_groebner",
    "min_distance_bruteforce",
    "nn_decode",
    "normal_form",
    "parity_check_of",
    "plucker",
    "reduce_poly",
    "rref",
    "schubert_params",
    "simulate",
    "spoly",
    "syndrome",
    "syndrome_decode",
    "weight_distribution",
]
