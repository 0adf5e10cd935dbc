"""Desk-scale workbench for Ramsey theory on exactly large sets."""
