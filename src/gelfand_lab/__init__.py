"""Symbolic-numeric lab for finitely presented commutative *-algebras.

Exact polynomial arithmetic over rational complex scalars, characters and
their evaluation, the free/underlying adjunction between plain and
*-presentations, seminorm bracketing on compact boxes, Bernstein
approximation, and the GNS construction from states.
"""

from .algebra import (MODE_ALGEBRA, MODE_STAR, Morphism, StarPoly,
                      StarPresentation, compose, extend_hom, format_poly,
                      free_star, identity_morphism, is_star_hom, reinterpret,
                      restrict_hom, underlying, underlying_morphism,
                      verify_rewrite_trace)
from .approx import (BernsteinResult, SeminormEstimate, TargetFunction,
                     bernstein_approx, catalog_target, density_witness,
                     is_holomorphic_image, seminorm_on_box, tabulated_target,
                     wirtinger_dzbar)
from .errors import (AlgebraError, CharacterError, GelfandError, GnsError,
                     MorphismError, ParseError, PresentationError,
                     RewriteBudgetError, StateError, UnsupportedError)
from .parsing import (format_character, parse_box, parse_character,
                      parse_morphism, parse_poly, parse_presentation,
                      parse_state)
from .scalars import ComplexRational
from .spectrum import (BoxSampler, Character, CompactBox, CompactnessReport,
                       GridSampler, RadicalReport, SampleSet, axis_layout,
                       character_from_axes, coefficient_bound,
                       extend_character_free, format_value, gelfand_eval,
                       is_nilpotent, naturality_inclusion, pushforward,
                       radical_vanishing_check, relative_compactness_check,
                       restrict_character_free, separating_generator,
                       validate_character)
from .states import (GnsModel, State, atomic_state, expect, gaussian_state,
                     gns_basis, gram_matrix, multiplication_operator,
                     quadrature_state)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
