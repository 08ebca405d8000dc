"""Concurrency models and their translations through higher dimensional automata."""

from .cubical import (
    STAR,
    CellId,
    DegeneracyWitness,
    Hda,
    PrecubicalComplex,
    SymmetricCubicalComplex,
    cell_face,
    check_deterministic,
    check_linear_labeling,
    truncate,
    validate_complex,
    validate_hda,
)
from .models import (
    Acr,
    EventStructure,
    LabeledTransitionSystem,
    Marking,
    PetriNet,
    TransitionSystem,
    configurations,
    idle_completion,
    reachable_markings,
    validate_acr,
    validate_es,
    validate_lts,
    validate_pn,
    validate_ts,
)
from .cts import Cts, coskeleton_fill, cts_to_hda, es_to_cts, pn_to_cts
from .functors import (
    HdaMorphism,
    Region,
    acr_to_hda2,
    enumerate_regions,
    es_to_hda,
    hda1_to_ts,
    hda2_to_acr,
    hda_to_es,
    hda_to_pn,
    induced_morphism,
    map_morphism,
    pn_to_hda,
    transpose_to_hda,
    transpose_to_pn,
    ts_to_hda1,
)
from .laws import (
    GeneratorConfig,
    LawReport,
    check_adjunction_pn_hda,
    check_comonad_identity,
    check_kleisli_lift,
    iso_check,
)

__version__ = "0.1.0"
