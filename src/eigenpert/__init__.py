"""Certified spectral perturbation bounds for matrices of the form
D + sqrt(D) (sum_k v_k v_k^T) sqrt(D), with an exact rank-one secular
solver and an empirical tightness harness.
"""

__version__ = "0.1.0"
