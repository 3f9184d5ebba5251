"""Compositional calculator for closed oriented 4-manifolds.

Builds connected sums of generator manifolds, decides the parity
conditions under which the monopole moduli space carries a spin
structure, evaluates the associated spin-bordism verdict for the covered
family, and applies the geometric consequence theorems (adjunction genus
bounds, Hitchin-Thorpe, Einstein nonexistence, Yamabe values) with exact
arithmetic throughout.
"""
