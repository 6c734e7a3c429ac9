"""
How many hours of speech does a model deserve?
==============================================

Token-budget scaling carried over to speech: hours = params * tokens-per-param
/ (words-per-minute * tokens-per-word * 60). The defaults assume 120 words per
minute, 4/3 subword tokens per word, and 20 training tokens per parameter.
"""

from asrlab.planner import ScalingAssumptions, optimal_hours

for params in (130_000_000, 264_000_000, 1_000_000_000):
    hours = optimal_hours(params)
    print(f"{params/1e6:7.0f}M params -> {hours:12,.1f} hours  (~{round(hours/1000)}k)")

# assumptions are explicit and overridable
fast_talkers = ScalingAssumptions(wpm=160.0)
print(f"\n264M at 160 wpm -> {optimal_hours(264_000_000, fast_talkers):,.0f} hours")

# same thing from the command line:
#   asrlab plan-data --params 264000000
