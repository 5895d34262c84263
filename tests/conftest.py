import hypothesis

hypothesis.settings.register_profile(
    "suite",
    deadline=None,  # examples run scipy quadrature oracles and whole CLI commands
    max_examples=40,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")
