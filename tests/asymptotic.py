"""The asymptotic alignment matrix, built in the ambient spaces.

``alignment.latent_margins`` scores this matrix in closed form, from the 2x2
latent target alone; the tests keep the matrix route as its reference.
"""

from spurious_lens.alignment import AlignmentMatrix, latent_alignment_target


def asymptotic_minimizer(config, dict_image, dict_text) -> AlignmentMatrix:
    """Idealized alignment (1/rho) * D_I A D_T^T with A the latent target."""
    core = latent_alignment_target(config)
    return AlignmentMatrix(dict_image.entries @ core @ dict_text.entries.T / config.rho)
