from hypothesis import settings

# Property tests draw the same examples on every run, and slow shared
# hosts do not turn a passing example into a deadline failure.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
