"""Differential graded algebra of modular diagrams over geometric lattices,
with the Orlik-Solomon algebra and a comparison morphism between them."""

from .lattice import (
    Embedding,
    GeometricLattice,
    build_boolean,
    build_from_flats,
    build_from_graph,
    build_partition_lattice,
    circuits,
    direct_product,
    interval,
    irreducible_factors,
    join,
    meet,
    rank,
    restriction,
)
from .canon import CanonicalForm, canonical_form, certificates_equal
from .modularity import (
    ModularChain,
    chordality_crosscheck,
    diamond_iso,
    is_modular,
    is_supersolvable,
    modular_characterizations_agree,
    modular_coatoms,
    modular_flats,
)
from .extensions import (
    ModularCut,
    ModularExtension,
    enumerate_modular_extensions,
    identity_extension,
    is_modular_cut,
    modular_cut,
    pushout,
    single_element_extension,
    symmetric_extension,
    truncation,
)
from .os_algebra import (
    HolonomyPresentation,
    OSElement,
    hilbert_series,
    holonomy_presentation,
    koszul_series_check,
    multiply,
    nbc_basis,
    os_graded_dims,
    reduce_to_nbc,
)
from .diagrams import (
    Combination,
    Diagram,
    I_morphism,
    ZERO,
    algebra_for,
    basis,
    cohomology,
    contractible_atoms,
    coproduct,
    differential,
    grading_component_iso,
    md_relabel,
    normalize,
    product,
)
from .linalg import IntegerMatrix, betti_from_ranks
from .harness import (
    VerificationReport,
    emit_golden,
    run_axiom_suite,
    run_verify_qiso,
)
from .specfile import load_lattice, parse_lattice_spec

__version__ = "0.1.0"
