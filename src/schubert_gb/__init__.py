"""Binary Grassmann/Schubert codes, their binomial ideals, and decoding.

The pipeline: construct a Schubert-code generator matrix over GF(2) via the
Pluecker embedding (:mod:`schubert_gb.schubert`), form the binomial ideal of
the code and compute its reduced degrevlex Groebner basis with the coset
engine (:mod:`schubert_gb.groebner`), then decode received words through
canonical forms (:mod:`schubert_gb.decoding`).  :class:`GroebnerDecoder` wraps the
pipeline in a fit/predict estimator; the ``sgb`` command line exposes it all,
including a verification suite over the bundled reference fixtures.  The
slow routes that audit the pipeline, the Buchberger run among them, are in
:mod:`schubert_gb.reference` and are not exported here.
"""

from .decoding import (
    BSC,
    DecodeOutcome,
    FixedWeight,
    SimReport,
    gb_decode,
    simulate,
)
from .estimators import GroebnerDecoder, SyndromeTableDecoder
from .groebner import (
    Binomial,
    ReducedGroebnerBasis,
    capability,
    coset_engine,
    normal_form,
)
from .linalg import (
    CosetLeaderTable,
    LinearCode,
    build_coset_leader_table,
    min_distance_bruteforce,
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
    "build_coset_leader_table",
    "capability",
    "coset_engine",
    "enumerate_schubert_points",
    "gaussian_binomial",
    "gb_decode",
    "generator_matrix",
    "index_tuples",
    "min_distance_bruteforce",
    "normal_form",
    "parity_check_of",
    "plucker",
    "rref",
    "schubert_params",
    "simulate",
    "syndrome",
    "syndrome_decode",
    "weight_distribution",
]
