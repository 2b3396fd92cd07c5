"""Harmory: symbolic harmonic similarity and a harmonic memory graph.

Chord symbols are parsed from Harte notation, embedded in Tonal Pitch
Space, segmented into structural patterns, compared with alignment-based
similarity measures, and stored in a queryable knowledge graph.
"""
