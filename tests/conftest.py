import os

from hypothesis import HealthCheck, settings

# every run replays the same examples; HYPOTHESIS_PROFILE=explore draws
# new ones, ten times as many, for the scheduled exploration job
settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
settings.register_profile("explore", settings.get_profile("default"), derandomize=False, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
