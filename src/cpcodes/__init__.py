"""Permutation source codes on concentric spheres for i.i.d. Gaussian sources.

The package covers the full pipeline: exact combinatorics of compositions and
codebook sizes, Gaussian / folded-Gaussian order-statistic moments, optimal
encoding and bijective indexing, Lloyd-style codebook design (including the
reduced-dimension form for a shared composition), shape-gain rate allocation
for sizing subcodebooks, and Monte Carlo rate-distortion evaluation.
Each name is imported from its module, e.g. ``from cpcodes.codec import
encode_cpc``; ``import cpcodes`` loads no submodule.
"""

__version__ = "0.8.0"
