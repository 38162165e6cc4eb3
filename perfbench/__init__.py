"""End-to-end routing benchmark (run ``perfbench/run.py``)."""
