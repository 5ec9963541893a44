"""Every command of the benchmark's certify pool against its pinned outcome.

A benchmark run checks only the commands its seed draws; this runs all of
them through `cli.main` and checks each with the benchmark's own
`workloads.check`, reading `perfbench/workloads.py` and `perfbench/pinned.json`.
"""


def test_every_certify_pool_command_matches_its_pin(pinned_pool):
    wl, failures = pinned_pool
    cmds = wl.certify_pool()
    assert len(cmds) == 125
    assert failures(cmds) == []
