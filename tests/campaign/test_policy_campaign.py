"""Campaigns under protection policies: refusal, identity, attribution.

A plain ``repro campaign`` coverage number assumes every interval is
compared — the golden signature spans the whole commit window.  Partial
policies break that assumption by construction, so ``run_campaign``
refuses them unless the caller opts into the unchecked-escape
accounting (the frontier sweep does).  These tests pin the refusal, the
full-policy bit-identity with the policy-free campaign, and the
``unchecked`` attribution that separates policy coverage gaps from CRC
aliasing.
"""

import pytest

from repro.campaign.plan import campaign_config
from repro.campaign.run import run_campaign
from repro.sim.config import ProtectionPolicy

WORKLOAD = "compute-kernel"
INJECTIONS = 10


@pytest.mark.parametrize(
    "policy",
    [
        ProtectionPolicy.interval_sampled(0.5),
        ProtectionPolicy.unprotected(),
        ProtectionPolicy.dynamic(),
    ],
)
def test_refuses_partial_policies_by_default(policy, tmp_path):
    with pytest.raises(ValueError, match="partial protection"):
        run_campaign(
            WORKLOAD, 4, config=campaign_config(policy=policy),
            cache_root=str(tmp_path),
        )


def test_full_policy_is_the_policy_free_campaign(tmp_path):
    bare = run_campaign(WORKLOAD, INJECTIONS, cache_root=str(tmp_path / "bare"))
    full = run_campaign(
        WORKLOAD,
        INJECTIONS,
        config=campaign_config(policy=ProtectionPolicy.full()),
        cache_root=str(tmp_path / "full"),
    )
    assert [outcome.classification for outcome in full.outcomes] == [
        outcome.classification for outcome in bare.outcomes
    ]
    assert [outcome.commits for outcome in full.outcomes] == [
        outcome.commits for outcome in bare.outcomes
    ]
    # A full pair checks every interval: no SDC can be a coverage gap.
    assert full.stats.sdc_unchecked == 0
    assert all(not outcome.unchecked for outcome in full.outcomes)


def test_little_mute_campaign_is_not_partial(tmp_path):
    # Heterogeneous but complete coverage: no opt-in needed.
    result = run_campaign(
        WORKLOAD,
        INJECTIONS,
        config=campaign_config(policy=ProtectionPolicy.little_mute(2)),
        cache_root=str(tmp_path),
    )
    assert result.stats.sdc_unchecked == 0


def test_unprotected_attributes_every_sdc_to_the_coverage_gap(tmp_path):
    result = run_campaign(
        WORKLOAD,
        INJECTIONS,
        config=campaign_config(policy=ProtectionPolicy.unprotected()),
        allow_partial=True,
        cache_root=str(tmp_path),
    )
    stats = result.stats
    # Nothing is compared, so nothing is detected...
    if stats.coverage_trials:
        assert stats.coverage == 0.0
    # ...and every silent corruption walked through an unchecked
    # interval — none may be misattributed to CRC aliasing.
    assert stats.sdc_unchecked == stats.buckets["sdc"]
    for outcome in result.outcomes:
        if outcome.classification == "sdc":
            assert outcome.unchecked
