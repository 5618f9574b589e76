// Micro-benchmarks for the hot computational kernels: FFT, STFT, MFCC,
// cross-correlation sync, cross-domain capture and the full pipeline score.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "core/streaming.hpp"
#include "device/sync.hpp"
#include "dsp/fft.hpp"
#include "dsp/generate.hpp"
#include "dsp/mel.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd.hpp"
#include "dsp/stft.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace vibguard {
namespace {

void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<dsp::Complex> buf(n);
  for (auto& v : buf) v = dsp::Complex(rng.gaussian(), 0.0);
  for (auto _ : state) {
    auto copy = buf;
    dsp::fft_pow2(copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<dsp::Complex> buf(n);
  for (auto& v : buf) v = dsp::Complex(rng.gaussian(), 0.0);
  for (auto _ : state) {
    auto out = dsp::fft(buf);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(6300);

void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> buf(n);
  for (auto& v : buf) v = rng.gaussian();
  for (auto _ : state) {
    auto spec = dsp::rfft(buf);
    benchmark::DoNotOptimize(spec);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Rfft)->Arg(64)->Arg(1024)->Arg(16384);

void BM_StftPower(benchmark::State& state) {
  Rng rng(3);
  const Signal vib = dsp::white_noise(5.0, 200.0, 0.01, rng);
  for (auto _ : state) {
    auto spec = dsp::stft_power(vib, 64, 16);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_StftPower);

void BM_StftPlanned(benchmark::State& state) {
  // Audio-baseline shape: 16 kHz recording, 512-point window, 128 hop —
  // exercises the plan cache and the allocation-free frame loop at the
  // audio rate (BM_StftPower covers the 200 Hz accelerometer shape).
  Rng rng(12);
  const Signal audio = dsp::white_noise(1.0, 16000.0, 0.05, rng);
  for (auto _ : state) {
    auto spec = dsp::stft_power(audio, 512, 128);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_StftPlanned);

void BM_Mfcc(benchmark::State& state) {
  Rng rng(4);
  const Signal audio = dsp::white_noise(1.0, 16000.0, 0.05, rng);
  for (auto _ : state) {
    auto mfcc = dsp::compute_mfcc(audio);
    benchmark::DoNotOptimize(mfcc);
  }
}
BENCHMARK(BM_Mfcc);

void BM_Mel(benchmark::State& state) {
  // Filterbank apply + DCT-II on one frame's power spectrum — the
  // per-frame inner step of MFCC extraction, isolated from the FFT.
  Rng rng(13);
  const auto bank = dsp::mel_filterbank(40, 512, 16000.0, 0.0, 900.0);
  std::vector<double> power(bank.bins());
  for (auto& v : power) v = rng.uniform(0.0, 1.0);
  std::vector<double> mel(bank.size());
  std::vector<double> coeffs(14);
  for (auto _ : state) {
    bank.apply(power, mel);
    for (double& v : mel) v = std::log(v + 1e-12);
    dsp::dct2_into(mel, coeffs);
    benchmark::DoNotOptimize(coeffs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bank.size()));
}
BENCHMARK(BM_Mel);

void BM_Resample(benchmark::State& state) {
  // The 16 kHz -> 200 Hz downsampling path: 101-tap anti-alias FIR plus
  // linear interpolation, the exact shape the cross-domain capture uses.
  Rng rng(14);
  const Signal audio = dsp::white_noise(1.0, 16000.0, 0.05, rng);
  for (auto _ : state) {
    auto low = dsp::resample(audio, 200.0);
    benchmark::DoNotOptimize(low);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(audio.size()));
}
BENCHMARK(BM_Resample);

void BM_Correlation2d(benchmark::State& state) {
  // Fused five-moment Pearson over a pair of full-size spectrograms.
  Rng rng(15);
  dsp::Spectrogram a(256, 33, 1.0, 0.01), b(256, 33, 1.0, 0.01);
  for (double& v : a.values()) v = rng.gaussian(0.5, 1.0);
  for (double& v : b.values()) v = rng.gaussian(0.4, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::correlation_2d(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.frames() * a.bins()));
}
BENCHMARK(BM_Correlation2d);

void BM_SyncEstimate(benchmark::State& state) {
  Rng rng(5);
  device::SyncChannel sync;
  const Signal scene = dsp::white_noise(1.5, 16000.0, 0.05, rng);
  const Signal delayed = sync.delayed_view(scene, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sync.estimate_delay_s(scene, delayed));
  }
}
BENCHMARK(BM_SyncEstimate);

void BM_CrossDomainCapture(benchmark::State& state) {
  Rng rng(6);
  device::Wearable wearable;
  const Signal rec = dsp::white_noise(1.5, 16000.0, 0.05, rng);
  for (auto _ : state) {
    Rng r(7);
    auto vib = wearable.cross_domain_capture(rec, r);
    benchmark::DoNotOptimize(vib);
  }
}
BENCHMARK(BM_CrossDomainCapture);

void BM_FullPipelineScore(benchmark::State& state) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 8);
  Rng rng(9);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto trial = sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), user);
  core::OracleSegmenter segmenter(trial.alignment,
                                  eval::reference_sensitive_set());
  core::DefenseSystem system{core::DefenseConfig{}};
  for (auto _ : state) {
    Rng r(10);
    benchmark::DoNotOptimize(
        system.score(trial.va, trial.wearable, &segmenter, r));
  }
}
BENCHMARK(BM_FullPipelineScore);

void BM_StreamingScore(benchmark::State& state) {
  // Time-to-verdict of the streaming pipeline after consuming the given
  // percentage of the trial's frames (the benchmark arg). 40% and 70% time
  // the anytime path — ingest, block processing and a provisional verdict
  // over the prefix; 100% runs to completion in kExactBatch mode, i.e. the
  // full streaming overhead plus the bit-identical batch re-score. Compare
  // against BM_FullPipelineScore for the streaming layer's overhead.
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 8);
  Rng rng(9);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto trial = sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), user);
  core::OracleSegmenter segmenter(trial.alignment,
                                  eval::reference_sensitive_set());
  core::DefenseSystem system{core::DefenseConfig{}};

  const double pct = static_cast<double>(state.range(0)) / 100.0;
  const std::size_t va_limit =
      static_cast<std::size_t>(pct * static_cast<double>(trial.va.size()));
  const std::size_t wear_limit = static_cast<std::size_t>(
      pct * static_cast<double>(trial.wearable.size()));
  core::StreamingConfig cfg;
  cfg.finalize = state.range(0) >= 100
                     ? core::StreamingConfig::Finalize::kExactBatch
                     : core::StreamingConfig::Finalize::kProvisional;
  core::StreamingPipeline pipeline(system, cfg);
  constexpr std::size_t kFrame = 1024;  // ~64 ms pushes at 16 kHz
  for (auto _ : state) {
    pipeline.begin(trial.va.sample_rate(), &segmenter, Rng(10));
    for (std::size_t off = 0; off < va_limit || off < wear_limit;
         off += kFrame) {
      const auto frame_of = [off](const Signal& s, std::size_t limit) {
        const std::size_t begin = std::min(off, limit);
        const std::size_t end = std::min(off + kFrame, limit);
        return s.samples().subspan(begin, end - begin);
      };
      pipeline.push(frame_of(trial.va, va_limit),
                    frame_of(trial.wearable, wear_limit));
    }
    benchmark::DoNotOptimize(pipeline.finalize());
  }
}
BENCHMARK(BM_StreamingScore)->Arg(40)->Arg(70)->Arg(100);

void BM_ExperimentParallel(benchmark::State& state) {
  // Full Fig. 9-style evaluation at the requested thread count (arg 0 uses
  // the auto/VIBGUARD_THREADS setting). Scores are bit-identical at every
  // thread count; only wall-clock changes.
  eval::ExperimentConfig cfg;
  cfg.num_speakers = 4;
  cfg.legit_trials = 8;
  cfg.attack_trials = 8;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    eval::ExperimentRunner runner(cfg, 21);
    auto results =
        runner.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ExperimentParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RenderTrial(benchmark::State& state, bool attack) {
  // One trial through ScenarioSimulator's one-call path, draw then
  // realize: speech (or a replay attack and the barrier), two room renders
  // and both microphones. A fresh simulator per iteration renders the
  // same trial every time. ExperimentRunner realizes trials like this one
  // concurrently, so this is its per-trial render cost.
  Rng people(32);
  const auto victim = speech::sample_speaker(speech::Sex::kFemale, people);
  const auto adversary = speech::sample_speaker(speech::Sex::kMale, people);
  const auto& command = speech::command_by_text("unlock the front door");
  for (auto _ : state) {
    eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 31);
    auto trial =
        attack ? sim.attack_trial(attacks::AttackType::kReplay, command,
                                  victim, adversary)
               : sim.legitimate_trial(command, victim);
    benchmark::DoNotOptimize(trial);
  }
}
BENCHMARK_CAPTURE(BM_RenderTrial, legit, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RenderTrial, replay, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vibguard

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Recorded into the JSON context block so committed benchmark results
  // say which dispatch level produced them.
  benchmark::AddCustomContext(
      "vibguard_simd",
      vibguard::dsp::simd::level_name(vibguard::dsp::simd::active_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
