"""Comparing two halves of a century of river flow measurements.

The vendored series holds 100 annual flow readings (1871-1970).  Splitting
at 1920 and fitting Gaussian KDEs, the later half has the smaller
bandwidth, so its fitted tail is the lighter one (its maximum and its
effective upper bound are lower too) and it is preferred - the flood risk
genuinely decreased.  The tail
threshold is computed on a normalised scale (pooled minimum moved to 1).
"""

from lossorder import compare, fit, tail_threshold
from lossorder.fixtures import load_nile

first, second = load_nile(split=50)
k1, k2 = fit(first), fit(second)

print(f"1871-1920: max {max(first):.0f}, bandwidth {k1.bandwidth:.2f}, "
      f"effective bound {k1.effective_upper_bound():.2f}")
print(f"1921-1970: max {max(second):.0f}, bandwidth {k2.bandwidth:.2f}, "
      f"effective bound {k2.effective_upper_bound():.2f}")

verdict = compare(k1, k2)
print(f"verdict: {verdict.relation.value} (rule: {verdict.decided_by})")

t = tail_threshold(k1, k2, verdict)
shift = 1.0 - min(min(first), min(second))
print(f"tail threshold x0 = {t.x0:.1f} on the normalised scale "
      f"({t.x0 - shift:.0f} in original units)")
