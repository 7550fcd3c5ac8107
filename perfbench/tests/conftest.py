import os
import sys

# the benchmark's modules import each other by bare name, as run.py does
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
