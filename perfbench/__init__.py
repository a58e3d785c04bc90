"""The repository's benchmark of the serving stack (entry point:
``python3 perfbench/run.py``)."""
