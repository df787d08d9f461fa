import os

import hypothesis

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None
)
hypothesis.settings.register_profile(
    "thorough", max_examples=400, deadline=None
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
