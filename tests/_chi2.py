"""Pearson's chi-square test on ``scipy.special`` alone.

``scipy.stats`` takes about a second to import; its chi-square survival
function is ``scipy.special.chdtrc``. ``chi_square_p`` repeats the
arithmetic of ``scipy.stats.chisquare`` (a 1-D table) and of
``scipy.stats.chi2_contingency`` (a 2-D table) step for step, so its
statistic and p-value are theirs bit for bit.
"""

import numpy as np
from scipy.special import chdtrc


def chi_square_p(table) -> float:
    """The p-value of Pearson's statistic for a table of counts.

    A 1-D table is tested against the uniform law, with k - 1 degrees of
    freedom. A 2-D table is tested for independence against the products of
    its margins, with (r - 1)(c - 1) degrees of freedom and, at one degree,
    Yates's correction: each count moves half a unit, at most, toward its
    expected value. A 2-D table of one row or column has no degree: p = 1.
    """
    observed = np.asarray(table, dtype=np.float64)
    if observed.ndim == 1:
        expected, dof = observed.mean(keepdims=True), observed.size - 1
    else:
        expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
        expected = expected / observed.sum()
        dof = (observed.shape[0] - 1) * (observed.shape[1] - 1)
        if dof == 0:
            return 1.0
        if dof == 1:
            diff = expected - observed
            observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    statistic = ((observed - expected) ** 2 / expected).sum()
    return float(chdtrc(dof, statistic))
