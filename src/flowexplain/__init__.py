"""Context-augmented natural-language explanations for flagged NetFlow records.

The package ingests labelled NetFlow-v2 exports, enriches each flagged
flow with feature specifications, protocol names, address knowledge and
connection history, builds deterministic prompts for a pluggable LLM
backend, and evaluates the generated explanations with machine-assisted
consistency checkers plus human-annotation aggregation.
"""

__version__ = "0.1.0"
