"""Unit tests for the composable fault-injection layer (repro.faults).

Everything here runs in-process against explicitly installed plans
(:func:`set_plan`); the cross-process environment-armed path is
exercised by the chaos suite (``test_chaos.py``).
"""

import os
import threading

import pytest

from repro.faults import (
    CONTROL_KINDS,
    DATA_KINDS,
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_point,
    get_plan,
    mangle,
    parse_plan,
    parse_rule,
    reset_plan,
    set_plan,
)
from repro.obs.metrics import get_registry


@pytest.fixture(autouse=True)
def disarm():
    """Every test leaves the process-global plan disarmed."""
    yield
    set_plan(None)


# -- parsing ------------------------------------------------------------------


class TestParsing:
    def test_minimal_rule(self):
        rule = parse_rule("worker.shard:crash")
        assert rule.site == "worker.shard"
        assert rule.kind == "crash"
        assert rule.p == 1.0 and rule.nth is None and rule.times is None

    def test_full_option_set(self):
        rule = parse_rule(
            "store.save.*:hang:p=0.5,nth=3,times=2,arg=1.5,counter=/tmp/c"
        )
        assert rule.p == 0.5
        assert rule.nth == 3
        assert rule.times == 2
        assert rule.arg == 1.5
        assert rule.counter == "/tmp/c"

    def test_plan_splits_on_semicolons_and_skips_blanks(self):
        plan = parse_plan("a:crash; b:hang:arg=1 ;; c:corrupt", seed=3)
        assert [r.site for r in plan.rules] == ["a", "b", "c"]
        assert plan.seed == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "justasite",  # no kind
            "site:frobnicate",  # unknown kind
            "site:crash:wat=1",  # unknown option
            "site:crash:nth",  # option without '='
            ":crash",  # empty site
            "site:crash:p=1.5",  # probability out of range
            "site:crash:counter=/tmp/c",  # counter without nth
        ],
    )
    def test_bad_rules_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)

    def test_site_patterns_use_fnmatch(self):
        rule = parse_rule("store.save.*:error")
        assert rule.matches("store.save.bytes")
        assert rule.matches("store.save.commit")
        assert not rule.matches("store.load.bytes")
        assert not rule.matches("store.save")  # '*' needs one more segment char


# -- triggers -----------------------------------------------------------------


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule(site="s", kind="error", nth=3)])
        fires = [plan.fire("s", CONTROL_KINDS) is not None for _ in range(6)]
        assert fires == [False, False, True, False, False, False]

    def test_times_caps_always_on_rules(self):
        plan = FaultPlan([FaultRule(site="s", kind="error", times=2)])
        fires = [plan.fire("s", CONTROL_KINDS) is not None for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_probability_is_seed_deterministic(self):
        def draw(seed):
            plan = FaultPlan([FaultRule(site="s", kind="error", p=0.5)], seed=seed)
            return [plan.fire("s", CONTROL_KINDS) is not None for _ in range(64)]

        a, b = draw(7), draw(7)
        assert a == b  # same seed, same firing sequence
        assert any(a) and not all(a)  # p=0.5 over 64 hits: both outcomes
        assert draw(8) != a  # a different seed reshuffles

    def test_counter_file_fires_while_count_at_most_nth(self, tmp_path):
        counter = str(tmp_path / "hits")
        rule = FaultRule(site="s", kind="error", nth=2, counter=counter)
        # Two plans simulate two incarnations of a crashed-and-respawned
        # process: the file carries the count across them.
        first = FaultPlan([rule])
        assert first.fire("s", CONTROL_KINDS) is not None
        assert first.fire("s", CONTROL_KINDS) is not None
        second = FaultPlan([rule])
        assert second.fire("s", CONTROL_KINDS) is None  # count now 3 > nth
        assert os.path.getsize(counter) == 3

    def test_counter_file_counts_each_concurrent_hit_once(self, tmp_path):
        """Processes hitting one counter together (two workers taking
        their first shards) must each see their own count; a shared
        count of 2 would let an ``nth=1`` rule fire for neither."""
        from repro.faults.plan import _bump_file_counter

        counter = str(tmp_path / "hits")
        counts = [[] for _ in range(4)]
        threads = [
            threading.Thread(
                target=lambda out=out: out.extend(
                    _bump_file_counter(counter) for _ in range(200)
                )
            )
            for out in counts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(sum(counts, [])) == list(range(1, 801))

    def test_kind_filter_separates_control_and_data_rules(self):
        plan = FaultPlan(
            [
                FaultRule(site="s", kind="corrupt"),
                FaultRule(site="s", kind="error"),
            ]
        )
        fired = plan.fire("s", CONTROL_KINDS)
        assert fired is not None and fired.kind == "error"
        fired = plan.fire("s", DATA_KINDS)
        assert fired is not None and fired.kind == "corrupt"


# -- the declared sites -------------------------------------------------------


class TestSites:
    def test_fault_point_is_noop_without_a_plan(self):
        set_plan(None)
        fault_point("anything.at.all")  # must simply return

    def test_fault_point_raises_injected_fault(self):
        set_plan(FaultPlan([FaultRule(site="x", kind="error")]))
        with pytest.raises(InjectedFault, match="site 'x'"):
            fault_point("x")
        fault_point("unmatched.site")  # other sites unaffected

    def test_fault_point_enospc_is_a_real_oserror(self):
        set_plan(FaultPlan([FaultRule(site="x", kind="enospc")]))
        import errno

        with pytest.raises(OSError) as info:
            fault_point("x")
        assert info.value.errno == errno.ENOSPC

    def test_fault_point_drop_is_connection_reset(self):
        set_plan(FaultPlan([FaultRule(site="wire.client.send", kind="drop")]))
        with pytest.raises(ConnectionResetError):
            fault_point("wire.client.send")

    def test_mangle_corrupt_flips_exactly_one_byte(self):
        set_plan(FaultPlan([FaultRule(site="b", kind="corrupt")], seed=5))
        data = bytes(range(32))
        out = mangle("b", data)
        assert len(out) == len(data)
        diffs = [k for k in range(len(data)) if out[k] != data[k]]
        assert len(diffs) == 1
        assert out[diffs[0]] == data[diffs[0]] ^ 0xFF

    def test_mangle_torn_keeps_a_proper_prefix(self):
        set_plan(
            FaultPlan([FaultRule(site="b", kind="torn", arg=0.25)])
        )
        data = b"x" * 16
        out = mangle("b", data)
        assert out == data[:4]
        # never truncates to nothing, never returns the full payload
        set_plan(FaultPlan([FaultRule(site="b", kind="torn", arg=0.0)]))
        assert mangle("b", b"ab") == b"a"

    def test_mangle_passes_data_through_unarmed(self):
        set_plan(None)
        payload = b"untouched"
        assert mangle("b", payload) is payload

    def test_injections_count_in_the_metrics_registry(self):
        counter = get_registry().counter("faults.injected")
        before = counter.value
        set_plan(
            FaultPlan(
                [
                    FaultRule(site="a", kind="error"),
                    FaultRule(site="b", kind="corrupt"),
                ]
            )
        )
        with pytest.raises(InjectedFault):
            fault_point("a")
        mangle("b", b"data")
        assert counter.value == before + 2


# -- environment arming -------------------------------------------------------


class TestEnvironment:
    def test_plan_loads_lazily_from_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "env.site:error:nth=1")
        monkeypatch.setenv(FAULTS_SEED_ENV, "11")
        reset_plan()
        try:
            plan = get_plan()
            assert plan is not None
            assert plan.seed == 11
            with pytest.raises(InjectedFault):
                fault_point("env.site")
        finally:
            set_plan(None)

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        reset_plan()
        assert get_plan() is None

    def test_set_plan_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "env.site:error")
        set_plan(None)  # explicit disarm wins over the env
        fault_point("env.site")
