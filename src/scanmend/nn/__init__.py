"""Minimal reverse-mode differentiation stack used by all trained models.

Import each name from the module that defines it: scanmend.nn.tensor,
layers, lossops, optim, checkpoint or gradcheck.
"""
