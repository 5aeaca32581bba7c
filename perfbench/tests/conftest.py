import os
import sys

# The benchmark's modules import one another as top-level modules (run.py
# puts its own directory on sys.path); the tests do the same.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
