"""Saliency-driven vision graph network with a verified float64 autodiff core."""
