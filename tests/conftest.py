import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
# CI draws the same examples on every run, so a failure there replays locally with CI=1
settings.register_profile("ci", parent=settings.get_profile("exact"), derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "exact")
