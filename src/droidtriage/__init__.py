"""Desk-scale app triage: static representation, screening, forensics, verdict."""

__version__ = "0.1.0"
