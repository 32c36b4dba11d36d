"""Exact Cech computations for gluing data of complex supermanifolds.

The package represents supermanifolds and their families as covers with
super transition maps whose coefficients are rational Laurent polynomials,
and decides splitting/obstruction questions by finite exact linear algebra.
"""

from .errors import (CocycleError, ContextError, LevelError, ParseError,
                     SubstitutionError, SupercechError, WindowError)
from .laurent import LaurentPoly
from .grassmann import GrassmannElement
from .spaces import Chart, Cover, ReducedSpace
from .gluing import (INFINITY, SuperGluingData, SuperTransition,
                     compose_transitions, identity_transition, invert_transition)
from .sheaf import (FilteredSheaf, SheafSpec, filtration, sheaf_dual,
                    sheaf_exterior_power, sheaf_hom, sheaf_spec, sheaf_tensor,
                    trivial_spec)
from .cech import (CechCochain, CohomologyClass, ShortExactSequence, cech_delta,
                   cohomology_basis, cohomology_class, connecting_map,
                   cup_product, extension_sheaf, is_coboundary, is_cocycle,
                   solve_coboundary)
from .obstruction import (CharacteristicFactorization, ObstructionClass,
                          attempt_split, characteristic_factorization,
                          deviation_cochain, obstruction_cocycle, scale_class,
                          scaling_action, splitting_type_differential)
from .family import (FamilySpec, GluedFamily, glue_over_p1,
                     isotriviality_witness, rothstein_family, split_family)
from .secondary import (GtModel, gt_model, model_class, model_class_map,
                        refined_splitting_data, secondary_differential,
                        secondary_space, verify_a1_containment,
                        verify_obstruction_compatibility)
from .modelfile import (ModelDocument, parse_model_file, parse_model_text,
                        write_gluing)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
