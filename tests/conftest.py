from hypothesis import settings

# every property test draws the same examples on every run and writes no
# example database; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
