"""Golden behaviour corpus: seeded runs whose event schedule and summary
figures are pinned exactly.

A change that keeps every cell here unchanged computes what the simulator
computed before it; a change that moves any value is a behaviour change and
must say so. Each cell's counters are pinned too, by a short hash, so a
lost or doubled count fails here even when the schedule does not move. The
cells cover every protocol in both scenarios, the two ant-pressure cells
(MAC contention, collisions, the ieeabr live-ant cap), and drained-battery
cells in which most nodes die, so MAC dead and energy drops and ieeabr's
dead-next-hop redistribution are pinned as well. The idle-draw cells charge
every node 0.01 J/s against a 0.25 J budget, so 15 to 23 of the 25 nodes
die of idle drain plus traffic inside the run: they pin idle settlement at
transmissions, at receptions and at the horizon. Each cell runs once for
both of its tests; all of them run in a few seconds.
"""

import functools
import hashlib
import json

import pytest

from antwsn.config import SimConfig
from antwsn.simulation import run_single

SEED = 3

VARIANTS = {
    "base": dict(nodes=25, duration=20.0),
    "pressure": dict(nodes=49, duration=10.0, ant_interval=0.08, traffic_rate=0.1),
    "drained": dict(nodes=25, duration=20.0, initial_energy=0.05, ant_interval=0.5),
    "idle": dict(nodes=25, duration=20.0, initial_energy=0.25, e_idle_per_s=0.01),
}

# (protocol, scenario, variant) -> (trace_sha256, dispatched_events,
#   latency_s, success_rate_pct, energy_j, efficiency_kbit_per_j,
#   max_live_forward_ants)
GOLDEN = {
    ('babr', 'static', 'base'): (
        'baae6c65dfa87e0e219442ba739af72ef2a155a228e8af2cc60831a68199711b',
        4268, 0.06305060092082292, 48.78048780487805,
        1.9396000000029971, 24.747370591836372, None),
    ('babr', 'dynamic', 'base'): (
        '2ff36138f1db0acf38dc321c1aafa0bf49878261e71107f39b438798b5e0ad8f',
        4423, 0.08267100971207988, 25.609756097560975,
        2.281519999981356, 11.045268066993026, None),
    ('sc', 'static', 'base'): (
        '2bd0e671e8e11272389ed6c7d862ee7974596f6cc670faa8ce1335501ad3dd6c',
        4085, 0.06803461498663382, 56.09756097560975,
        1.839160000002721, 30.0137019073481, None),
    ('sc', 'dynamic', 'base'): (
        'e97d7629a8dcfd3079a9a1ccefa6d282bd28b4e7f275c7bb0af9a9fa57e56ef7',
        4233, 0.05478451995431141, 28.86178861788618,
        2.0360399999774472, 13.948645409871407, None),
    ('ff', 'static', 'base'): (
        '872c171543c46de70994252000f9ef2e48f286b5342561fb66a5039693a0823e',
        11089, 0.3093261907452087, 28.86178861788618,
        2.6167200000112416, 10.853281971276251, None),
    ('ff', 'dynamic', 'base'): (
        'f6df7de81fa07d6e8b344ca28d74f232a90e5c6976b19a471f6515a2c1e7f448',
        9897, 0.22321986579678257, 25.203252032520325,
        2.4203999999519965, 10.246240291064227, None),
    ('fp', 'static', 'base'): (
        '593629167c5b282a6230de164f64c443742a5fd8689003ab4161b3b5d0f02175',
        7860, 2.426854734053276, 49.59349593495935,
        3.6728400000022248, 13.286720902617711, None),
    ('fp', 'dynamic', 'base'): (
        'b822fb14d95de97ae5c1628a09c0a6e94724438bc61516e05fa8b2881d6848d3',
        7808, 2.7032958408887042, 51.6260162601626,
        3.9839199999630637, 12.751260065581382, None),
    ('eeabr', 'static', 'base'): (
        'e824a89cbc35db1f03f8349d6fc4d627cc008050418f6bb46e9baaada59fb48c',
        4307, 0.06559917047733038, 29.26829268292683,
        2.0366000000003623, 14.141215751740585, None),
    ('eeabr', 'dynamic', 'base'): (
        '766e7d927c75ea51d83ab3604bcb81e2627472693c89d272e8a207fb6f5f7b14',
        4417, 0.049422014019802014, 22.764227642276424,
        2.1326799999810646, 10.503216610180093, None),
    ('ieeabr', 'static', 'base'): (
        '4a8c9f99106a34e208b470484eb66784ea3784b4d57f7863d63545eff8ea14bb',
        4070, 0.06784634178055962, 35.77235772357724,
        1.8743600000005927, 18.779743485770542, 5),
    ('ieeabr', 'dynamic', 'base'): (
        '7ae8a5843c5eccde0bfb44bc0a54f381c42ebe929178037d4d7ed6b1c277d045',
        4224, 0.08434173888401932, 30.08130081300813,
        1.993159999981117, 14.850789700917352, 6),
    ('babr', 'static', 'pressure'): (
        'bb1f49328ca650f2cad571acd2c0dca2ad05fec06d5d3708a5b469c39d639062',
        28101, None, 0.0,
        5.587480000035612, 0.0, None),
    ('ieeabr', 'static', 'pressure'): (
        '298c6edbee0903b8caf85ea74c244da238034f8f929565ed649b67b140d174d3',
        21375, 0.021597815339854165, 6.382978723404255,
        4.225760000026867, 0.2839725871777788, 245),
    ('babr', 'static', 'drained'): (
        '9045e9aac7d7536543b5ed761d2af4259244667b9d5cf629546c53a26dc4fb85',
        4554, 0.14027637687269526, 9.248554913294798,
        1.1193199999999974, 5.717757209734495, None),
    ('fp', 'static', 'drained'): (
        '723bff1da41e5ad577dc00b752465877e66d68255a38a23f3082c46549e9a035',
        2871, 0.8373740891568954, 22.22222222222222,
        1.1684, 11.639849366655254, None),
    ('eeabr', 'static', 'drained'): (
        '08883be8562c562fb2a0c05783d5a17dae56835a70f44bc50884ef86697275da',
        4666, 0.07151184410281718, 16.76300578034682,
        1.1478799999999973, 10.105585949750868, None),
    ('ieeabr', 'static', 'drained'): (
        'fa943b2239d2bd5c21bbb89d0a32cd2e9b4f017c4cb062b3dc73944a59b4c7b2',
        4690, 0.04702702702702672, 24.18300653594771,
        1.1678799999999978, 12.67253484947086, 9),
    ('babr', 'static', 'idle'): (
        '92030a77a480b3721c0ef207881618e72d2474a86ca9539946c0bdee5a16389d',
        3551, 0.06628969011665217, 40.35874439461883,
        6.0612, 5.93941793704217, None),
    ('sc', 'static', 'idle'): (
        '2406c765b1c2de28142d3de2a1d51d82c428512061d39a50135f14be3c7d8c7b',
        3550, 0.07014839264344722, 47.747747747747745,
        6.07696, 6.977172796924778, None),
    ('ff', 'static', 'idle'): (
        'cda31724bf1b75a3a36d58f79aaa9714154cf44323a3402d16269c823c5ba9e4',
        8511, 0.2384562926848505, 19.90740740740741,
        6.201279999999995, 2.7736209298725445, None),
    ('fp', 'static', 'idle'): (
        '21f175e1875962aefc721fad6a76198fb4a7205d063534b54eaab83747b3b7b7',
        5509, 1.7808715558224386, 40.20100502512563,
        6.223400000000001, 5.141883857698364, None),
    ('eeabr', 'static', 'idle'): (
        'd5b895d94ab17bf0697ae036c030c72dc2aa2a350fc3ce69cc52367cc7d3c7b8',
        3240, 0.03873701851204635, 51.072961373390555,
        6.111440000000001, 7.788671736939247, None),
    ('ieeabr', 'static', 'idle'): (
        'f3eea00351b4b2da59187a118a2b423ea33454defddbd0dd06f27737723cdfc8',
        3299, 0.06894765588549964, 57.758620689655174,
        6.0955200000000005, 8.79334330787201, 3),
}


# (protocol, scenario, variant) -> the first 16 hex digits of the SHA-256 of
#   json.dumps(sorted(result.counters.items()))
COUNTERS = {
    ('babr', 'dynamic', 'base'): '4fb48966bb057a5e',
    ('babr', 'static', 'base'): 'bffc17c6925d3ec8',
    ('babr', 'static', 'drained'): '19074354ad8a092b',
    ('babr', 'static', 'idle'): 'e5d7a52330bed8cd',
    ('babr', 'static', 'pressure'): 'd3112d6bd883fe9c',
    ('eeabr', 'dynamic', 'base'): 'a79e89e6f08b8f5a',
    ('eeabr', 'static', 'base'): '06bb6e7d484025fe',
    ('eeabr', 'static', 'drained'): '5528a7947b87d14a',
    ('eeabr', 'static', 'idle'): 'd0d9ff5e680d413f',
    ('ff', 'dynamic', 'base'): 'f3fa7c3e90fab548',
    ('ff', 'static', 'base'): '8d1d6998250d1255',
    ('ff', 'static', 'idle'): 'bed335b7924d3c06',
    ('fp', 'dynamic', 'base'): '582f42deb6f49b83',
    ('fp', 'static', 'base'): '39cd5df8ee6cf646',
    ('fp', 'static', 'drained'): 'd0380fa7c332f198',
    ('fp', 'static', 'idle'): '8420dd60499f6240',
    ('ieeabr', 'dynamic', 'base'): '7d6c40c122cac2c3',
    ('ieeabr', 'static', 'base'): '38d9a05a7fd82483',
    ('ieeabr', 'static', 'drained'): '365c41744630de3a',
    ('ieeabr', 'static', 'idle'): 'a3d5dcea4da13432',
    ('ieeabr', 'static', 'pressure'): '32249cf09b54d959',
    ('sc', 'dynamic', 'base'): 'ba99605a5761f5e2',
    ('sc', 'static', 'base'): 'd90ba02bcbd877a2',
    ('sc', 'static', 'idle'): '2ef6c94edeb922b6',
}


@functools.cache
def _run(protocol, scenario, variant):
    return run_single(SimConfig(protocol=protocol, scenario=scenario, seed=SEED,
                                **VARIANTS[variant]))


@pytest.mark.parametrize("protocol,scenario,variant", sorted(GOLDEN))
def test_golden_cell(protocol, scenario, variant):
    r = _run(protocol, scenario, variant)
    got = (r.trace_sha256, r.dispatched_events, r.latency_s, r.success_rate_pct,
           r.energy_j, r.efficiency_kbit_per_j, r.max_live_forward_ants)
    assert repr(got) == repr(GOLDEN[protocol, scenario, variant])


@pytest.mark.parametrize("protocol,scenario,variant", sorted(COUNTERS))
def test_golden_counters(protocol, scenario, variant):
    counters = sorted(_run(protocol, scenario, variant).counters.items())
    digest = hashlib.sha256(json.dumps(counters).encode()).hexdigest()[:16]
    assert digest == COUNTERS[protocol, scenario, variant], f"counters: {counters}"
