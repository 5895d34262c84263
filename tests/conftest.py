import os

import hypothesis

hypothesis.settings.register_profile(
    "suite",
    deadline=None,  # examples run scipy quadrature oracles and whole CLI commands
    max_examples=40,
    derandomize=True,
)
# a longer run of the same examples and more, by hand or in CI:
# HYPOTHESIS_PROFILE=long python -m pytest tests/test_cli.py -k TestKeyTableFuzz
hypothesis.settings.register_profile("long", hypothesis.settings.get_profile("suite"), max_examples=5000)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))
