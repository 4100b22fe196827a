"""Per-sample reference for fit_congruence.

It computes what psdorder.preservers.fit_congruence computes the way that
function did before it read one column of one eigh call and filled S in
place: each probe takes the image of the first sample that matches it in
full, the first column is sqrt(lambda) q for the leading eigenpair of
reference_verdicts.canonical_eig (canonical order), each further column is
isolated from its mixed probe on its own, S is np.column_stack of the
columns, and every sample is checked against S on its own.  The module
scales the first column by a power of two before it multiplies four
factors of S's scale, so the two agree bit for bit wherever those
products stay inside the float range.
"""

import numpy as np

from psdorder import InconsistentSamples, probe_inputs
from psdorder.numkernel import maxabs, rel_residual
from psdorder.tolerances import DEFAULT_TOL
from reference_verdicts import canonical_eig


def fit_congruence(samples, tol=DEFAULT_TOL):
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in samples]
    if not pairs:
        raise InconsistentSamples("no samples given")
    n = pairs[0][0].shape[0]
    images = []
    for probe in probe_inputs(n):
        found = [y for x, y in pairs if maxabs(x - probe) <= tol.recon_tol]
        if not found:
            raise InconsistentSamples("probe inputs are missing from the samples")
        images.append(found[0])
    values, vectors = canonical_eig(images[0])
    if values[0] <= 0 or np.count_nonzero(np.abs(values) > tol.rank_cutoff(values)) != 1:
        raise InconsistentSamples(
            "image of the first probe is not rank one; no invertible congruence explains the samples"
        )
    first = np.sqrt(float(values[0])) * vectors[:, 0]
    norm_sq = float(first @ first)
    columns = [first]
    for i in range(1, n):
        cross = images[n + i - 1] - images[0] - images[i]
        col = (cross @ first - float(first @ cross @ first) / (2.0 * norm_sq) * first) / norm_sq
        expected = np.outer(col, col)
        if rel_residual(expected - images[i], expected, images[i]) > tol.recon_tol:
            raise InconsistentSamples(
                f"column {i} reconstructed from the mixed probe does not "
                "reproduce its diagonal probe image"
            )
        columns.append(col)
    s = np.column_stack(columns)
    for given, image in pairs:
        predicted = s @ given @ s.T
        if rel_residual(predicted - image, predicted, image) > tol.recon_tol:
            raise InconsistentSamples("a sample disagrees with the congruence fitted from the probes")
    return s
