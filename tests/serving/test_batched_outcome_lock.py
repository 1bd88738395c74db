"""Exact locks over the five padded-batch serving policies.

Static, priority, pipeline, RAG and speculative serving each run one small
jittered stream on GH200, AMD+A100 and GH200 with two pipeline stages, two
replicas and a recorder, at ``chunk_tokens=0``. Each run hashes three
things with sha256 over their ``repr``:

* the outcomes ``(request_id, ttft_ns, completion_ns, queue_ns, replica)``
  in completion order;
* the recorded steps ``(kind, ts_ns, dur_ns, batch_size, replica)``;
* every session's ``schedule_items`` (the checkable per-device issue list).

The digests were recorded before the batched policies were folded onto one
claim/prefill/tail/completion path, so any drift in claim order, step
timing or completion bookkeeping shows up here. Speculative outcomes are
compared value by value at ``rel=1e-9`` instead of by digest: their
completion is a sum whose association order is not part of the contract.
"""

import hashlib

import pytest

from repro.engine import PPConfig
from repro.hardware import get_platform
from repro.obs.recorder import RunRecorder
from repro.serving.batcher import StaticBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.pipeline import PipelineServingPolicy, PipelineStage
from repro.serving.rag import RagServingPolicy
from repro.serving.requests import poisson_requests
from repro.serving.runtime import simulate_serving
from repro.serving.scheduler import (
    ClassifiedRequest,
    PriorityPolicy,
    RequestClass,
)
from repro.serving.speculative import SpeculativeServingPolicy
from repro.workloads import GPT2

#: ~12 requests with jittered lengths, arriving fast enough that the two
#: replicas batch and queue.
STREAM = dict(rate_per_s=300, duration_s=0.04, prompt_len=128,
              prompt_jitter=64, output_tokens=16, output_jitter=8, seed=11)

PLATFORMS = {
    "gh200": ("GH200", None),
    "amd_a100": ("AMD+A100", None),
    "gh200_pp2": ("GH200", PPConfig(stages=2)),
}

POLICIES = {
    "static": StaticBatchPolicy(max_batch_size=4, max_wait_ns=5e6),
    "priority": PriorityPolicy(interactive_batch=2, bulk_batch=4,
                               bulk_max_wait_ns=20e6),
    "pipeline": PipelineServingPolicy(
        stages=(PipelineStage("plan", GPT2, prompt_len=32, output_tokens=8),
                PipelineStage("act", GPT2, prompt_len=48, output_tokens=4,
                              consumes_upstream=False),
                PipelineStage("answer", GPT2, prompt_len=16,
                              output_tokens=6)),
        max_batch_size=4),
    "rag": RagServingPolicy(retrieval_ns=2e5, tokens_per_chunk=32, top_k=2,
                            max_batch_size=4),
    "speculative": SpeculativeServingPolicy(draft=GPT2, max_batch_size=4),
}


def _workload(name):
    requests = poisson_requests(**STREAM)
    if name != "priority":
        return requests
    return [ClassifiedRequest(request=r,
                              request_class=(RequestClass.INTERACTIVE
                                             if i % 3 == 0
                                             else RequestClass.BULK))
            for i, r in enumerate(requests)]


def batched_run(policy_name, platform_key):
    """Serve the lock stream; returns ``(result, recorder)``."""
    platform, pp = PLATFORMS[platform_key]
    recorder = RunRecorder()
    result = simulate_serving(
        _workload(policy_name), GPT2,
        LatencyModel(platform=get_platform(platform), pp=pp),
        policy=POLICIES[policy_name], replicas=2, recorder=recorder)
    return result, recorder


def _sha(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def outcome_rows(result):
    return [(o.request.request_id, o.ttft_ns, o.completion_ns, o.queue_ns,
             o.replica) for o in result.outcomes]


def step_rows(recorder):
    return [(s.kind.value, s.ts_ns, s.dur_ns, s.batch_size, s.replica)
            for s in recorder.steps]


def schedule_rows(result):
    return [sorted(session.schedule_items.items())
            for session in result.sessions]


#: (policy, platform) -> (outcomes, steps, schedules) sha256 digests.
DIGESTS = {
    ('pipeline', 'amd_a100'): (
        'd3b0b3c380ab29186b63b109bec4f950ca4a049ec42b8f1979894e573f462b4e',
        'baa38d9a1b35eb2094bd9c999f77ef054fcd31669f58dd707c7bd36f18dbf2bb',
        'da8d08e41cb43b4bb505b704d6de45a9e2187db2d732f63bc60fc1a34cce2147',
    ),
    ('pipeline', 'gh200'): (
        'a699f0278f8c287ed10ff6fb6cd096836ad826b432f738fc1cf80fee96c4b5a4',
        '6a72464879b00d2af16af6e6d218bf655b7ec8fe116e35406e3c2184c5c72859',
        'da8d08e41cb43b4bb505b704d6de45a9e2187db2d732f63bc60fc1a34cce2147',
    ),
    ('pipeline', 'gh200_pp2'): (
        '0b06677fcd8de782ebc4bb0a436b4e3e4985dcd53c0b7dc845b3f2bc961be70d',
        '468b7aef460e0d2f49acafec7f9086ef1a95be0ac53eb4c0c26f4a793bfe19aa',
        '90a7f3c435608f330e071bfeb95c0b7ddadc5a9e101a6ff37b1b52958a134de4',
    ),
    ('priority', 'amd_a100'): (
        '2094802cefe9178033337035d4ca3f916f41376adc2621596e518d270c80b10f',
        'cbd0fd1d278e901a7281f0984ffd4a2a661cf9d8d79f12f20f44edfc51b59c82',
        'bd3a58ff3d4fcdbbe24d38eebe5c6a785280c74582f9e0fa2785ff138b06ce05',
    ),
    ('priority', 'gh200'): (
        '232795c6ccb5edd2caa57cda0ad65fe8fbc81f958fe0a4f8f19123b435add278',
        '07d31e17f6a2e32d70f29ac6e78043ae4db5e2dcff7541ff28ecbff2b2715678',
        'bd3a58ff3d4fcdbbe24d38eebe5c6a785280c74582f9e0fa2785ff138b06ce05',
    ),
    ('priority', 'gh200_pp2'): (
        '493ea1a4b1747476441d5d0d8c7a7a52edb602e47865ceb5c737dbe42d28ec87',
        '30e4873e8e2e8150ac63c54881eea720937a43acf0a436337d9b7235bcafa711',
        'ec3fdfd4d6cf7021cc161509674fdf71e38ba8fcda0c4c735bbf8d2c5a1fb8fa',
    ),
    ('rag', 'amd_a100'): (
        'aaf43ea8e53d4e5dcbf27380e27736291913a50cf90d048818d0429ec7feac49',
        'eb4af918eaf2edd169bf54965998700d92c71a6c8d70a34a9469b14df2e60e27',
        'c42874e722a3dfa32ce31545218f6a9053dc73183ff2d7df45de470cf03df82a',
    ),
    ('rag', 'gh200'): (
        'f78e6dc07395348c8dfdbb4d9a8487de4aabd7fe3d2dc52d0cb259cb4e474df7',
        '28bb5b3017b3840823fed8128528fc90d1f06f032de3e503f20888e3a35357be',
        'c42874e722a3dfa32ce31545218f6a9053dc73183ff2d7df45de470cf03df82a',
    ),
    ('rag', 'gh200_pp2'): (
        '6bd0ea8bf259aef5d0f0063cb8f23f48d77d380cfa830c80f499484e660ae4a9',
        '2ed127bd414004502081bb0840d7affb01cf7f435f074d2288de936fe826f6e3',
        '06fb08daf4742667691d163db83ab5cd4b962fab58e85822e833d0d4584d28e9',
    ),
    ('speculative', 'amd_a100'): (
        None,  # outcomes: see SPECULATIVE_OUTCOMES
        'bf87ad3e878ff192a78d8883e9c77ec952788a7536bf01304ff4be47534264d4',
        'c5cb168bf60ae5043983ea9f1a184bc53f6dca16695606208fb5aa8bed5a26e7',
    ),
    ('speculative', 'gh200'): (
        None,  # outcomes: see SPECULATIVE_OUTCOMES
        'f944a8433c56f78e29fb49f2874d4c06653d2e108ed2207275000b0baf322e18',
        'c5cb168bf60ae5043983ea9f1a184bc53f6dca16695606208fb5aa8bed5a26e7',
    ),
    ('speculative', 'gh200_pp2'): (
        None,  # outcomes: see SPECULATIVE_OUTCOMES
        '5f47bb8214f748ba485dcc070e43f06cd3e5b60474b759d8f2bd73aa2cb5b965',
        'b1b24381a00cd13c0ef1736ebab8ea0c1a268d9e82cd92620f275234dac9fd65',
    ),
    ('static', 'amd_a100'): (
        '8af84539fba1291067e08740510521e0eefbac2abc6e1d56313066189b1839e3',
        'b4333ea56e4ab1f3f61f8fbe05f6efc1b2ce4473842f69a254f5a45b6848d01f',
        'f1ab78a4aabf34d7c59266e14f9af2d6af0e242bafe1861445908aa11e3a0055',
    ),
    ('static', 'gh200'): (
        '423d67f955d8f4ea4362d50ed52ec8080b95dc5a1e4cb975ce251f808bdda78f',
        '8a85d961d45f22a3406e7106c97ecaa33ec1982563667537c30d08d0c9ba6574',
        'f1ab78a4aabf34d7c59266e14f9af2d6af0e242bafe1861445908aa11e3a0055',
    ),
    ('static', 'gh200_pp2'): (
        'c07b78e82593ab43317e26fb7cbeaef6bc388d33c58b99b13cc975800641464a',
        'a54c3da5fe24975bfd389bb7bf4c663a07456fa8ef2611fbe7aaae2034889221',
        '618ab55ac9cd53245e32c3db3baa15e687f41703c3ec97434e534daac0225216',
    ),
}

#: Speculative outcome rows, compared at rel=1e-9.
SPECULATIVE_OUTCOMES = {
    'amd_a100': [
        (0, 6043202.06821716, 261509972.40367484, 0.0, 0),
        (1, 6039021.501041786, 156996658.5174486, 0.0, 1),
        (2, 157749512.58497933, 308713774.29688233, 151566218.04917184, 1),
        (3, 157420005.0937201, 296771631.28932285, 151236710.55791262, 1),
        (4, 157103179.07549176, 389355889.4014964, 150919884.53968427, 1),
        (5, 145951477.35801974, 238852561.4884216, 139768182.82221225, 1),
        (6, 242121968.07833552, 346635687.72503763, 235978260.59483573, 0),
        (7, 242000955.2017417, 334902039.33214355, 235857247.7182419, 0),
        (8, 236982400.75461447, 492460382.1132196, 230838693.27111468, 0),
        (9, 234002597.5291792, 512705849.92038476, 227858890.0456794, 0),
        (10, 369320696.40879166, 636403499.5402912, 363257725.6767089, 1),
        (11, 369305348.5555977, 624775855.8987712, 363242377.82351494, 1),
    ],
    'gh200': [
        (0, 11528270.688668108, 499813853.9375349, 0.0, 0),
        (1, 11526223.553027766, 300058613.65463084, 0.0, 1),
        (2, 306193448.6427732, 594729082.7181454, 294628173.1863541, 1),
        (3, 305863941.151514, 572204526.4518574, 294298665.6950949, 1),
        (4, 305547115.13328564, 749448090.6338582, 293981839.67686653, 1),
        (5, 294395413.4158136, 471955803.6160426, 282830137.9593945, 1),
        (6, 485834521.81610787, 685589960.7913655, 474282142.12869567, 0),
        (7, 485713508.93951404, 663273899.1397431, 474161129.25210184, 0),
        (8, 480694954.4923869, 968986027.5430167, 469142574.8049747, 0),
        (9, 477715151.26695156, 1010396321.8676386, 466162771.57953936, 0),
        (10, 734880936.722891, 1245363232.3230782, 723349926.9090703, 1),
        (11, 734865588.869697, 1223153002.0524848, 723334579.0558763, 1),
    ],
    'gh200_pp2': [
        (0, 11529708.217205927, 499855530.6596881, 0.0, 0),
        (1, 11526323.252748305, 300082491.05966955, 0.0, 1),
        (2, 306230517.7928511, 594766151.8682232, 294652050.5913929, 1),
        (3, 305901010.3015919, 572241595.6019354, 294322543.10013366, 1),
        (4, 305584184.2833635, 749485159.783936, 294005717.0819053, 1),
        (5, 294432482.5658915, 471992872.76612055, 282854015.3644333, 1),
        (6, 485885998.99651945, 685641437.9717771, 474323818.8508489, 0),
        (7, 485764986.1199256, 663325376.3201547, 474202805.9742551, 0),
        (8, 480746431.67279845, 969037504.7234282, 469184251.5271279, 0),
        (9, 477766628.44736314, 1010447799.0480502, 466204448.3016926, 0),
        (10, 734921233.4541494, 1245449228.1603832, 723386996.0591481, 1),
        (11, 734905885.6009554, 1223237010.9721355, 723371648.2059541, 1),
    ],
}


@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_batched_policy_locked(policy_name, platform_key):
    result, recorder = batched_run(policy_name, platform_key)
    assert len(result.outcomes) == len(poisson_requests(**STREAM))
    outcomes, steps, schedules = DIGESTS[(policy_name, platform_key)]
    assert _sha(step_rows(recorder)) == steps
    assert _sha(schedule_rows(result)) == schedules
    if policy_name != "speculative":
        assert _sha(outcome_rows(result)) == outcomes
        return
    expected = SPECULATIVE_OUTCOMES[platform_key]
    rows = outcome_rows(result)
    assert [(r[0], r[4]) for r in rows] == [(e[0], e[4]) for e in expected]
    for row, want in zip(rows, expected):
        assert row[1:4] == pytest.approx(want[1:4], rel=1e-9)
