"""Engine-backed latency model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import INTEL_H100
from repro.serving import LatencyModel
from repro.workloads import GPT2, LLAMA_3_2_1B
from repro.workloads.graph import Phase


@pytest.fixture(scope="module")
def model():
    return LatencyModel(INTEL_H100)


def test_ttft_positive_and_cached(model):
    first = model.ttft_ns(GPT2, 1, 256)
    second = model.ttft_ns(GPT2, 1, 256)
    assert first > 0
    assert first == second
    assert (Phase.PREFILL.value, GPT2.name, 1, 256) in model._priced


def test_ttft_grows_with_batch(model):
    assert model.ttft_ns(GPT2, 32, 256) > model.ttft_ns(GPT2, 1, 256)


def test_decode_step_vs_prefill_by_batch(model):
    # At BS=1 both phases are CPU-bound and comparable (decode even has two
    # extra KV-append ops per layer); at BS=16 prefill is GPU-bound while the
    # one-token decode step stays cheap.
    prefill_1 = model.ttft_ns(LLAMA_3_2_1B, 1, 512)
    decode_1 = model.decode_step_ns(LLAMA_3_2_1B, 1, 512)
    assert decode_1 == pytest.approx(prefill_1, rel=0.3)
    prefill_16 = model.ttft_ns(LLAMA_3_2_1B, 16, 512)
    decode_16 = model.decode_step_ns(LLAMA_3_2_1B, 16, 512)
    assert decode_16 < prefill_16 / 3


def test_generation_composes_prefill_and_decode(model):
    ttft = model.ttft_ns(GPT2, 1, 128)
    total = model.generation_ns(GPT2, 1, 128, 16)
    assert total > ttft
    step = model.decode_step_ns(GPT2, 1, 129)
    assert total == pytest.approx(ttft + 16 * step, rel=0.2)


def test_generation_zero_output_is_ttft(model):
    assert model.generation_ns(GPT2, 1, 128, 0) == model.ttft_ns(GPT2, 1, 128)


def test_generation_negative_output_rejected(model):
    with pytest.raises(ConfigurationError):
        model.generation_ns(GPT2, 1, 128, -1)


def test_throughput_improves_with_batching(model):
    single = model.tokens_per_second(GPT2, 1, 128, 16)
    batched = model.tokens_per_second(GPT2, 16, 128, 16)
    assert batched > 4 * single
