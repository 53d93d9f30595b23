"""Ranking two attack scenarios rated by security experts.

Experts scored two scenarios on the 0-10 CVSS scale.  Coarsening the scores
to low/medium/high and comparing the categorical distributions prefers
scenario 1 (fewer high-severity votes, relatively).  Fitting kernel density
estimates to the raw scores instead reverses the preference: scenario 1's
ratings reach the scale maximum more broadly once the lost numeric detail is
restored.  Same data, different granularity, different answer - the
granularity choice is part of the modelling.
"""

from lossorder import compare, fit, tail_threshold
from lossorder.fixtures import load_cvss_ratings, load_cvss_scores

groups = load_cvss_ratings()
s1, s2 = groups["scenario1"], groups["scenario2"]
print("coarsened to L/M/H:")
print(f"  scenario 1 pmf (H, M, L): {tuple(round(p, 4) for p in s1.probs)}")
print(f"  scenario 2 pmf (H, M, L): {tuple(round(p, 4) for p in s2.probs)}")
verdict = compare(s1, s2)
print(f"  verdict: {verdict.relation.value}")
t = tail_threshold(s1, s2, verdict)
print(f"  severities above category {t.x0!r} separate the scenarios")

scores = load_cvss_scores()
k1, k2 = fit(scores["scenario1"]), fit(scores["scenario2"])
print("\nraw scores, Gaussian KDE:")
print(f"  bandwidths: {k1.bandwidth:.3f} vs {k2.bandwidth:.3f}")
print(
    "  effective upper bounds: "
    f"{k1.effective_upper_bound():.3f} vs {k2.effective_upper_bound():.3f}"
)
verdict = compare(k1, k2)
print(f"  verdict: {verdict.relation.value} (rule: {verdict.decided_by})")
