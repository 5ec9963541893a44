"""Sampled pool commands and tiny exact ladders against the benchmark's checks.

The benchmark compares every field of a sampled report with
`perfbench/pinned.json`, so a change to the report writer or the protocol
that moves any value fails it. This runs the small-sampled pool commands of
two sample seeds and the tiny ladder-exact lists through `cli.main`, and
checks each with the benchmark's own `workloads.check`: sampled reports
against their pins, ladder reports by exit code and `max_deviation`.
"""

SAMPLE_SEEDS = ("0", "1")
LADDER_SEEDS = (0, 1, 2)


def test_sampled_pool_and_tiny_ladders_pass_the_benchmark_checks(pinned_pool):
    wl, failures = pinned_pool
    sampled = [
        cmd for cmd in wl.small_sampled_pool()
        if cmd.argv[cmd.argv.index("--seed") + 1] in SAMPLE_SEEDS
    ]
    assert len(sampled) == 74
    found = failures(sampled)
    for seed in LADDER_SEEDS:
        # each seed writes its circuits under the same file names, so its
        # commands run before the next seed's are built
        ladder = wl.build("ladder-exact", seed, tiny=True)
        assert all(cmd.max_deviation is not None for cmd in ladder)
        found += failures(ladder)
    assert found == []
