"""Walk through the closed-form check suite at reduced sample budget.

Every analytic quantity the estimators and bounds rely on is checked
against an independent Monte Carlo or brute-force evaluation:

  noise-cov-inverse       inverse of the differenced squared-range noise
                          covariance
  ranging-bias            mean of the WLS position error vs closed form
  ranging-second-moment   its per-axis second moment
  dr-moments              displacement-noise bias/variance identities
  optimal-beta            closed-form fusion weight vs grid search
  trig-moments            E{cos}, E{sin}, and second trig moments under
                          accumulated heading noise
  fisher-blocks           sampled information blocks vs their expectations
  ratio-bounds            deterministic brackets on E{q^2/(q^2+z^2)}
  gershgorin-ordering     the posterior bracket L <= Pi_MC <= U of
                          random ensembles is PSD-ordered (and tied on
                          one point), and so are the recursions on it
  recursion-identities    variance recursion / Riccati fixed points

`scale` multiplies every sample budget; the CLI equivalent is
`paretoloc validate-lemmas --samples 150000`.  At scale 0.15 the whole suite
takes a few seconds; the acceptance tests run it at full budget, where
the 3-sigma gates have comfortable margin.

Run:  python3 demos/05_closed_form_checks.py
"""
from paretoloc.validate import run_all_checks

results = run_all_checks(scale=0.15, verbose=True)

print()
print("details:")
for r in results:
    print(f"  {r.name}: {r.detail}")
    worst = {k: v for k, v in r.data.items() if k.startswith("worst")}
    if worst:
        pairs = ", ".join(f"{k}={v:.3g}" for k, v in worst.items())
        print(f"      {pairs}")
