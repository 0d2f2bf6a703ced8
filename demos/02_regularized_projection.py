# The damped first-stage projection
# =================================
#
# With many or nearly collinear instruments Q, the projection onto col(Q)
# behind 2SLS becomes unstable.  The fix: eigendecompose Q Q'/n and damp each
# component psi_j by a weight q(alpha, nu_j^2) in [0, 1]:
#
#   Tikhonov (ridge)        q = nu^2 / (nu^2 + alpha)
#   Landweber-Fridman       q = 1 - (1 - c nu^2)^iterations
#   principal components    q = 1 if the component ranks high enough
#
# This script builds a realistic instrument set and inspects the weights.

import numpy as np

from sarnet import (Scheme, Spectrum, apply_projector, generate_mc_network,
                    normalize_columns, projector_traces, q1_roster, q2_roster,
                    q_weights)
from sarnet.graphs import PanelData
from sarnet.transforms import ModelParams, reduced_form

rng = np.random.default_rng(7)

# a benchmark-style draw: 30 groups of 10, sparse links
net = generate_mc_network(30, 10, 3, rng)
x = rng.standard_normal(net.n)
gamma = 0.1 * rng.standard_normal(net.group_count)
eps = rng.standard_normal(net.n)
params = ModelParams.checked(net, lam=0.1, beta1=[0.2], beta2=[0.2], rho=0.1,
                             gamma=gamma, sigma2=1.0)
X = np.column_stack([x, net.lag_W(x)])
y = reduced_form(params, X, gamma, eps, net)
data = PanelData(y=y, x1=x[:, None], x2=x[:, None], group_sizes=net.group_sizes)

# the large roster: the small roster of covariate lags plus one centrality
# column per group, normalized to unit variance so the damping treats
# columns comparably
q1 = q1_roster(net, data.regressors(net))
inst = normalize_columns(q2_roster(net, q1), "unit-variance")
spectrum = Spectrum.from_instruments(inst)
# unit-variance columns give every per-group column the same sum of
# squares, so that value is an eigenvalue of high multiplicity; it is split
# off in closed form and only the rest of the spectrum is decomposed
value, size = spectrum.cluster
print(f"{inst.n_columns} instrument columns, retained rank {spectrum.rank}, "
      f"cluster {value:.6f} x {size}")
print("eigenvalue range: %.3f .. %.3f  (condition %.1f)" % (
    spectrum.eigenvalues[-1], spectrum.eigenvalues[0], spectrum.condition_number))
print()

# ----------------------------------------------------------------------
# Damping weights across the spectrum.  Small alpha keeps everything; heavy
# alpha keeps only the strongest components -- principal components does
# that with a hard cutoff, Tikhonov and Landweber-Fridman smoothly.
# ----------------------------------------------------------------------
print("component:            " + "".join(f"{j:>7d}" for j in (1, 2, 3, 10, 20, spectrum.rank)))
for scheme in (Scheme.tikhonov(0.1), Scheme.tikhonov(2.0),
               Scheme.landweber(4), Scheme.landweber(64),
               Scheme.principal_components(5)):
    q = q_weights(scheme, spectrum)
    label = scheme.kind + (f"(alpha={scheme.alpha:g})" if scheme.kind == "T"
                           else f"({scheme.steps} steps)")
    picks = [q[j - 1] for j in (1, 2, 3, 10, 20, spectrum.rank)]
    print(f"{label:<22}" + "".join(f"{v:7.3f}" for v in picks))
print()

# ----------------------------------------------------------------------
# tr P and tr P^2 summarize how much of the instrument space survives; they
# drive the selection criteria (more surviving dimensions = more
# many-instrument bias, fewer = worse first-stage fit).
# ----------------------------------------------------------------------
for scheme in (Scheme.tikhonov(0.01), Scheme.tikhonov(1.0),
               Scheme.principal_components(5),
               Scheme.principal_components(spectrum.rank)):
    tr, tr2 = projector_traces(spectrum, scheme)
    print(f"{scheme.kind} alpha={scheme.alpha:<8g} tr P = {tr:6.2f}   tr P^2 = {tr2:6.2f}")
print()

# ----------------------------------------------------------------------
# The Tikhonov projector has a second, equivalent route through the m x m
# instrument Gram matrix: P e = Q (K^2 + alpha I)^{-1} K Q' e / n.  Checking
# the two agree is a useful self-test of the spectral plumbing.
# ----------------------------------------------------------------------
alpha = 0.25
e = rng.standard_normal(net.n)
# the roster keeps its per-group columns as one vector; written out in full
# it is the n x m matrix Q of the textbook formula
Q = inst.dense()
K = Q.T @ Q / net.n
dense = Q @ np.linalg.solve(K @ K + alpha * np.eye(inst.n_columns), K) @ Q.T @ e / net.n
spectral = apply_projector(spectrum, Scheme.tikhonov(alpha), e)
print("Tikhonov dual-route max gap:", float(np.abs(dense - spectral).max()))

# principal components with every component is the ordinary projection, so
# classical 2SLS is the undamped corner of the same family
full = apply_projector(spectrum, Scheme.principal_components(spectrum.rank), e)
lsq, *_ = np.linalg.lstsq(Q, e, rcond=None)
print("PC-full vs least-squares projection max gap:",
      float(np.abs(full - Q @ lsq).max()))
