# Identification diagnostics for network-interaction models
# ==========================================================
#
# The endogenous effect in Y = lambda W Y + X beta1 + W X beta2 + ... is
# identified through the spectrum of the adjacency matrix.  This script walks
# through the diagnostics: counting distinct eigenvalues, checking the rank
# of the instrument stack, and watching identification become *weak* as the
# structure degenerates.

import numpy as np

from sarnet import (GroupedNetwork, build_report, distinct_eigenvalues,
                    labelled_stack, lee_group_network, lee_reduced_coefficient,
                    row_normalize)

rng = np.random.default_rng(0)

# ----------------------------------------------------------------------
# 1. Complete graphs have exactly two distinct eigenvalues {n-1, -1}.
#    By Cayley-Hamilton, W^2 is then a combination of I and W: the excluded
#    instruments collapse onto the included regressors and nothing is
#    identified, no matter how much data arrives.  A single adjacency
#    matrix is the one-group network GroupedNetwork.from_blocks([W], [M]).
# ----------------------------------------------------------------------
K6 = np.ones((6, 6)) - np.eye(6)
k6 = GroupedNetwork.from_blocks([K6], [row_normalize(K6)], m_row_normalized=True)
count, clusters = distinct_eigenvalues(k6)
print("complete graph K6")
print("  distinct eigenvalues:", count, clusters)
print("  verdict:", build_report(k6).verdict)
print()

# ----------------------------------------------------------------------
# 2. Equal-weight group interaction: each group of size m contributes the
#    eigenvalue -1/(m-1) (plus the common 1).  Equal group sizes give two
#    distinct eigenvalues -> not identified; varied sizes give more.  The
#    spectrum of a grouped network is the union of its group spectra, which
#    is how distinct_eigenvalues(net) computes it.
# ----------------------------------------------------------------------
for sizes in ([10, 10], [5, 7], [4, 5, 6]):
    net = lee_group_network(sizes)
    count, clusters = distinct_eigenvalues(net)
    print(f"group sizes {sizes}: {count} distinct eigenvalues "
          f"{[round(v, 4) for v, _ in clusters]}")
print()

# ----------------------------------------------------------------------
# 3. Identification via group-size variation weakens as groups grow: the
#    within-group reduced-form slope ((m-1) b1 - b2)/(m - 1 + lambda)
#    converges across group sizes, so the identifying variation vanishes.
# ----------------------------------------------------------------------
print("reduced-form slope by group size (lambda=0.1, beta1=beta2=0.2):")
for m in (5, 10, 50, 200, 1000):
    print(f"  m={m:5d}: {lee_reduced_coefficient(m, 0.1, 0.2, 0.2):.6f}")
print()

# ----------------------------------------------------------------------
# 4. The full report combines the spectral count with the rank and
#    conditioning of the instrument stack [WX, W^2 X, ..., X].  A huge
#    condition number marks near-perfect collinearity of the first stage:
#    "weakly identified".
# ----------------------------------------------------------------------
net = lee_group_network([4, 5, 6])
X = rng.standard_normal((net.n, 1))
report = build_report(net, X)
print("varied group sizes with a covariate:")
for line in report.lines():
    print(" ", line)
print()

# ----------------------------------------------------------------------
# 5. Conditioning deteriorates as the stack grows: deeper network lags are
#    ever more collinear, which is exactly the weak-identification channel
#    that regularization addresses.
# ----------------------------------------------------------------------
n = 80
ring = np.zeros((n, n))
for i in range(n):
    for step in (1, 9):
        ring[i, (i + step) % n] = ring[(i + step) % n, i] = 1.0
ring_net = GroupedNetwork.from_blocks([ring], [row_normalize(ring)], m_row_normalized=True)
X = rng.standard_normal((n, 2))
print("condition number of the stack's Gram matrix by lag order:")
for order in (1, 2, 3, 4):
    stack, _, _ = labelled_stack(ring_net, X, order)
    sv = np.linalg.svd(stack, compute_uv=False)
    print(f"  order {order}: {(sv[0] / sv[-1]) ** 2:12.1f}")
