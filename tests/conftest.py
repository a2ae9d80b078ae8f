from hypothesis import settings

# every run checks the same examples and leaves no example database behind
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
