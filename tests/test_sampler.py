import pytest

from mmadapt.errors import ConfigError, ContractViolation
from mmadapt.rng import Rng
from mmadapt.sampler import BatchSchedule, SamplerConfig, plan_epoch

from references import check_interleaving, empirical_ratios


def _pools(n_per_split=400):
    pools = {}
    pools[("ASR", "src", "valid")] = [f"asr-{i}" for i in range(n_per_split)]
    for lang in ("tgt1", "tgt2", "tgt3"):
        pools[("ST", lang, "valid")] = [f"st-{lang}-{i}" for i in range(n_per_split)]
        pools[("MT", lang, "valid")] = [f"mt-{lang}-{i}" for i in range(n_per_split)]
    for lang in ("src", "tgt1", "tgt2", "tgt3"):
        for validity in ("valid", "invalid"):
            pools[("SQA", lang, validity)] = [f"sqa-{lang}-{validity}-{i}" for i in range(n_per_split)]
            pools[("QA", lang, validity)] = [f"qa-{lang}-{validity}-{i}" for i in range(n_per_split)]
    return pools


def _config(**kw):
    st_splits = {("tgt1", "valid"): 0.3, ("tgt2", "valid"): 0.3, ("tgt3", "valid"): 0.4}
    sqa_splits = {}
    for lang in ("src", "tgt1", "tgt2", "tgt3"):
        sqa_splits[(lang, "valid")] = 0.2
        sqa_splits[(lang, "invalid")] = 0.05
    defaults = dict(
        task_ratios={"ASR": 0.2, "ST": 0.4, "SQA": 0.4},
        split_ratios={"ASR": {("src", "valid"): 1.0}, "ST": st_splits, "SQA": sqa_splits},
        batch_size=4,
    )
    defaults.update(kw)
    return SamplerConfig(**defaults)


def test_epoch_steps_is_floor_of_pool_over_batch():
    cfg = _config(batch_size=16, epoch_steps=None)
    pools = _pools(100)
    # primary pool: ASR 100 + ST 300 + SQA 800 = 1200 -> X = 75
    schedule = plan_epoch(cfg, pools, Rng(1))
    assert len(schedule.steps) == 1200 // 16
    assert all(not step[0].interleaved for step in schedule.steps)


def test_exact_epoch_length_1600_over_16():
    cfg = SamplerConfig(
        task_ratios={"ASR": 1.0},
        split_ratios={"ASR": {("src", "valid"): 1.0}},
        batch_size=16,
        interleave_text=False,
    )
    pools = {("ASR", "src", "valid"): [f"x{i}" for i in range(1600)]}
    schedule = plan_epoch(cfg, pools, Rng(2))
    assert len(schedule.steps) == 100
    assert len(schedule.entries) == 100


def test_long_run_task_frequencies_match_ratios():
    cfg = _config(epoch_steps=10_000, batch_size=1)
    schedule = plan_epoch(cfg, _pools(50), Rng(3))
    freqs = empirical_ratios(schedule)
    assert abs(freqs["ASR"] - 0.2) < 0.02
    assert abs(freqs["ST"] - 0.4) < 0.02
    assert abs(freqs["SQA"] - 0.4) < 0.02


def test_split_ratios_renormalized_within_task():
    cfg = _config(epoch_steps=8_000, batch_size=1)
    schedule = plan_epoch(cfg, _pools(50), Rng(4))
    sqa = [step[0] for step in schedule.steps if step[0].task == "SQA"]
    frac_invalid = sum(1 for e in sqa if e.validity == "invalid") / len(sqa)
    assert abs(frac_invalid - 0.2) < 0.03  # 0.05 / (0.2 + 0.05) per language
    langs = {lang: sum(1 for e in sqa if e.language == lang) / len(sqa) for lang in ("src", "tgt1")}
    assert abs(langs["src"] - 0.25) < 0.03


def test_interleaving_rule_holds_and_st_pairs_with_mt():
    schedule = plan_epoch(_config(epoch_steps=300), _pools(), Rng(5))
    assert check_interleaving(schedule)
    # Each step is its primary entry, then its interleaved text entry if any.
    assert len(schedule.steps) == 300
    for step in schedule.steps:
        assert [e.interleaved for e in step] == [False, True][: len(step)]
        assert (len(step) == 2) == (step[0].task in ("ST", "SQA"))
    assert schedule.entries == [e for step in schedule.steps for e in step]
    # manual scan oracle
    entries = schedule.entries
    for i, e in enumerate(entries):
        if e.task == "ST" and not e.interleaved:
            nxt = entries[i + 1]
            assert nxt.task == "MT" and nxt.interleaved
            assert (nxt.language, nxt.validity) == (e.language, e.validity)
        if e.task == "ASR":
            assert i + 1 == len(entries) or not entries[i + 1].interleaved


def test_asr_has_no_text_follow_up():
    cfg = SamplerConfig(
        task_ratios={"ASR": 1.0},
        split_ratios={"ASR": {("src", "valid"): 1.0}},
        batch_size=2,
        epoch_steps=50,
    )
    schedule = plan_epoch(cfg, _pools(20), Rng(6))
    assert all(not e.interleaved for e in schedule.entries)
    assert len(schedule.entries) == 50


def test_same_seed_reproducible_different_seed_differs():
    a = plan_epoch(_config(epoch_steps=200), _pools(), Rng(8))
    b = plan_epoch(_config(epoch_steps=200), _pools(), Rng(8))
    c = plan_epoch(_config(epoch_steps=200), _pools(), Rng(9))
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_without_replacement_until_cursor_cycles():
    cfg = SamplerConfig(
        task_ratios={"ST": 1.0},
        split_ratios={"ST": {("tgt1", "valid"): 1.0}},
        batch_size=5,
        epoch_steps=30,
        interleave_text=False,
    )
    pools = {("ST", "tgt1", "valid"): [f"id{i}" for i in range(50)]}
    schedule = plan_epoch(cfg, pools, Rng(10))
    drawn = [i for e in schedule.entries for i in e.example_ids]
    assert len(drawn) == 150
    for cycle in range(3):
        window = drawn[cycle * 50 : (cycle + 1) * 50]
        assert len(set(window)) == 50


def test_positive_ratio_empty_split_rejected():
    cfg = _config()
    pools = _pools()
    del pools[("ST", "tgt2", "valid")]
    with pytest.raises(ConfigError):
        plan_epoch(cfg, pools, Rng(11))


def test_ratio_groups_must_sum_to_one():
    with pytest.raises(ConfigError):
        SamplerConfig(
            task_ratios={"ASR": 0.5, "ST": 0.4},
            split_ratios={"ASR": {("src", "valid"): 1.0}, "ST": {("tgt1", "valid"): 1.0}},
        )


def test_empirical_ratios_single_task_and_sum():
    cfg = SamplerConfig(
        task_ratios={"ASR": 1.0},
        split_ratios={"ASR": {("src", "valid"): 1.0}},
        batch_size=2,
        epoch_steps=40,
    )
    schedule = plan_epoch(cfg, _pools(20), Rng(12))
    freqs = empirical_ratios(schedule)
    assert freqs == {"ASR": 1.0}
    mixed = plan_epoch(_config(epoch_steps=500), _pools(), Rng(13))
    f = empirical_ratios(mixed)
    assert abs(sum(f.values()) - 1.0) < 1e-12
    # counting oracle
    primary = [step[0] for step in mixed.steps]
    for task, freq in f.items():
        assert freq == sum(1 for e in primary if e.task == task) / len(primary)


def test_empirical_ratios_empty_schedule_rejected():
    with pytest.raises(ContractViolation):
        empirical_ratios(BatchSchedule(steps=[]))


def test_text_mode_renders_everything_text():
    cfg = SamplerConfig(
        task_ratios={"ASR": 0.4, "MT": 0.6},
        split_ratios={
            "ASR": {("src", "valid"): 1.0},
            "MT": {("tgt1", "valid"): 0.4, ("tgt2", "valid"): 0.3, ("tgt3", "valid"): 0.3},
        },
        batch_size=4,
        epoch_steps=100,
        text_mode=True,
    )
    schedule = plan_epoch(cfg, _pools(), Rng(14))
    assert all(e.modality == "text" for e in schedule.entries)
    assert all(not e.interleaved for e in schedule.entries)


def test_manifest_lines_round_trip():
    import json

    schedule = plan_epoch(_config(epoch_steps=20), _pools(), Rng(15))
    lines = schedule.to_manifest_lines()
    assert len(lines) == len(schedule.entries)
    rec = json.loads(lines[0])
    assert set(rec) == {"task", "language", "validity", "modality", "interleaved", "ids"}
