"""Desk-scale workbench for finite-group approximation experiments."""
