# Choosing the regularization strength from data
# ==============================================
#
# The damping parameter trades the many-instrument bias (grows with tr P)
# against first-stage fit (shrinks with damping).  The selector minimizes a
# plug-in estimate of the dominant MSE term along the coefficient direction
# of interest, with Mallows Cp, GCV, or leave-one-out CV as the
# goodness-of-fit ingredient.

from pathlib import Path

import numpy as np

from sarnet import (curve_to_csv, first_stage, generate_mc_network,
                    normalize_columns, preliminary_delta, preliminary_rho,
                    prepare_selection, q1_roster, q2_roster, regularized_2sls,
                    select_from_context)
from sarnet.graphs import PanelData
from sarnet.transforms import ModelParams, reduced_form

rng = np.random.default_rng(11)

net = generate_mc_network(30, 10, 3, rng)
x = rng.standard_normal(net.n)
gamma = 0.1 * rng.standard_normal(net.group_count)
eps = rng.standard_normal(net.n)
params = ModelParams.checked(net, lam=0.1, beta1=[0.2], beta2=[0.2], rho=0.1,
                             gamma=gamma, sigma2=1.0)
X = np.column_stack([x, net.lag_W(x)])
y = reduced_form(params, X, gamma, eps, net)
data = PanelData(y=y, x1=x[:, None], x2=x[:, None], group_sizes=net.group_sizes)

# preliminary estimates seed the selection plug-ins: delta_tilde is classical
# 2SLS on the small roster q1, without the rho transform
Xb = data.regressors(net)
q1 = q1_roster(net, Xb)
delta_tilde = preliminary_delta(data, net, q1)
rho_tilde = preliminary_rho(data, net, delta_tilde)
print("preliminary delta:", np.round(delta_tilde, 3), " rho:", round(rho_tilde, 3))

# one first stage (the whitened data's instrument coordinates) serves the
# selection context and every fit on the large roster
inst = normalize_columns(q2_roster(net, q1), "unit-variance")
stage = first_stage(data, net, inst, rho_tilde)
ctx = prepare_selection(stage, delta_tilde, "cp")
print(f"noise variance {ctx.sigma2_eps:.3f}, first-stage residual variance "
      f"{ctx.sigma2_v:.3f}, bias proxy {ctx.bias_factor:.3f}")
print()

# ----------------------------------------------------------------------
# The Tikhonov curve: fit criterion and the MSE estimate across the grid.
# The argmin balances the two failure modes.
# ----------------------------------------------------------------------
curve = select_from_context(ctx, "T").curve
print("alpha        Cp          S_hat")
for a, crit, value in curve[::6]:
    print(f"{a:10.3g}  {crit:10.4f}  {value:10.4f}")
print()

for kind in ("T", "LF", "PC"):
    result = select_from_context(ctx, kind)
    scheme = result.scheme
    fitted = regularized_2sls(stage, scheme)
    what = (f"alpha = {scheme.alpha:.4g}" if kind == "T"
            else f"{scheme.steps} {'iterations' if kind == 'LF' else 'components'}")
    print(f"{kind:>2}: chose {what:<22} lambda_hat = {fitted.lambda_hat:+.4f}  "
          f"tr P = {fitted.tr_P:.2f}")
print()

# the three goodness-of-fit plug-ins usually land close to each other
for crit in ("cp", "gcv", "loo"):
    ctx_c = prepare_selection(stage, delta_tilde, criterion=crit)
    result = select_from_context(ctx_c, "T")
    print(f"criterion {crit:>3}: alpha = {result.scheme.alpha:.4g}")

# the full audit curve can go to CSV for plotting, here in the working directory
Path("tikhonov_curve.csv").write_text(curve_to_csv(select_from_context(ctx, "T")))
print("\ncurve written to tikhonov_curve.csv")
