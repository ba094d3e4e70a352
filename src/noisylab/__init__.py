"""Desk-scale laboratory for training classifiers under label noise.

Corrupt labels with a known transition matrix, train a small MLP, and keep
only the per-batch samples whose selection score survives the cut. The
combined score subtracts confidence aligned with estimated penalty labels
from confidence on the observed label.
"""
