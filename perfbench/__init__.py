"""The repository benchmark (see README.md); run it with ``python3 perfbench/run.py``."""
