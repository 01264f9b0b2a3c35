"""Exact combinatorics of arcs on discs with infinitely many marked points."""
