"""The lifted basis of a solution space, for the tests that read it.

lcalab keeps only the class-0 basis and serializes each lift by renaming
generators (solver.basis_dicts); these helpers make the lifted vectors and
maps by Ansatz.lift instead, a second way to the same basis.
"""


def lifted_vectors(space):
    """The Row of each basis vector, sigma_s of class0[j] for (j, s) =
    space.lifts[i], made by Ansatz.lift."""
    return [space.ansatz.lift(space.class0[j], s) for j, s in space.lifts]


def lifted_basis(space):
    """The concrete map of each basis vector, from lifted_vectors."""
    return [space.ansatz.map_from_vector(v) for v in lifted_vectors(space)]
