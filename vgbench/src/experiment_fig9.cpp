// experiment_fig9: repeated ExperimentRunner::run of replay attacks under
// all three DefenseModes at threads = nproc, with a fresh runner each
// repetition (the runner caches populations per attack and mode). The
// only workload where trial rendering and the ThreadPool fan-out do most
// of the work, and the only one that runs AudioFeatureStage and the
// whole-command vibration baseline.
//
// A verdict is one (trial, mode) score. ExperimentRunner::run returns all
// of them at once, so every verdict of a repetition has that
// repetition's latency.
#include <thread>

#include "common/thread_pool.hpp"
#include "eval/experiment.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace vgbench {

namespace core = vibguard::core;
namespace eval = vibguard::eval;
using vibguard::attacks::AttackType;

namespace {

const std::vector<core::DefenseMode> kModes = {
    core::DefenseMode::kFull, core::DefenseMode::kVibrationBaseline,
    core::DefenseMode::kAudioBaseline};

eval::ExperimentConfig experiment_config(std::size_t trials_per_class) {
  eval::ExperimentConfig cfg;
  cfg.num_speakers = std::max<std::size_t>(2, trials_per_class / 4);
  cfg.legit_trials = trials_per_class;
  cfg.attack_trials = trials_per_class;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  return cfg;
}

constexpr std::size_t kTrialsPerClass = 48;

using Populations = std::map<core::DefenseMode, eval::ScorePopulations>;

bool same_scores(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_populations(const Populations& a, const Populations& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [mode, pa] : a) {
    const auto it = b.find(mode);
    if (it == b.end()) return false;
    const eval::ScorePopulations& pb = it->second;
    if (!same_scores(pa.legit, pb.legit) ||
        !same_scores(pa.attack, pb.attack) ||
        pa.legit_unscored != pb.legit_unscored ||
        pa.attack_unscored != pb.attack_unscored) {
      return false;
    }
  }
  return true;
}

/// Traced replica of one ExperimentRunner::run: the render replica, then
/// per mode a serial scoring pass ("eval.score"), the ThreadPool pass
/// ("common.pool") and the ROC ("eval.roc"), plus the traced pipeline
/// on every (trial, mode). The populations must equal the runner's.
void traced_repetition(const Options& opt, const Populations& reference,
                       Report& report, Tracer& tracer, StageCounts& counts) {
  const eval::ExperimentConfig cfg = experiment_config(kTrialsPerClass);
  PopulationSpec spec;
  spec.legit = cfg.legit_trials;
  spec.attack = cfg.attack_trials;
  spec.types = {AttackType::kReplay};
  spec.speakers = cfg.num_speakers;
  const std::vector<Trial> trials =
      render_population(opt.seed, spec, &tracer, report);

  const vibguard::Rng score_rng(opt.seed ^ 0x7e57ULL);
  vibguard::ThreadPool pool(std::min(cfg.threads, trials.size()));
  std::vector<core::Workspace> workspaces(
      std::max<std::size_t>(1, pool.num_threads()));
  core::Workspace serial_ws;
  std::vector<core::ScoreRequest> requests(trials.size());
  std::vector<core::ScoreOutcome> serial(trials.size()), parallel(trials.size());
  Populations replica;
  bool parallel_matches = true, traced_matches = true;
  for (const core::DefenseMode mode : kModes) {
    core::DefenseConfig dcfg = cfg.defense;
    dcfg.mode = mode;
    dcfg.wearable = cfg.scenario.wearable;
    dcfg.sync = cfg.scenario.sync;
    const core::DefenseSystem system(dcfg);
    for (std::size_t t = 0; t < trials.size(); ++t) {
      // The runner's position-derived fork label.
      const bool attack = trials[t].rec.is_attack;
      const std::size_t legit_before = attack ? cfg.legit_trials : t;
      const std::size_t attack_before = attack ? t - cfg.legit_trials : 0;
      requests[t].va = &trials[t].rec.va;
      requests[t].wearable = &trials[t].rec.wearable;
      requests[t].segmenter = &trials[t].segmenter;
      requests[t].rng = score_rng.fork(static_cast<std::uint64_t>(mode) * 7919 +
                                       legit_before * 31 + attack_before);
    }
    {
      Scope s(tracer, "eval.score", static_cast<std::uint64_t>(mode));
      system.score_batch(requests, std::span<core::ScoreOutcome>(serial),
                         serial_ws);
    }
    {
      Scope s(tracer, "common.pool", static_cast<std::uint64_t>(mode));
      system.score_batch(requests, std::span<core::ScoreOutcome>(parallel),
                         pool, workspaces);
    }
    eval::ScorePopulations pops;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      parallel_matches = parallel_matches &&
                         parallel[t].status == serial[t].status &&
                         same_bits(parallel[t].score, serial[t].score);
      if (serial[t].ok()) {
        (trials[t].rec.is_attack ? pops.attack : pops.legit)
            .push_back(serial[t].score);
      } else {
        ++(trials[t].rec.is_attack ? pops.attack_unscored
                                   : pops.legit_unscored);
      }
    }
    {
      Scope s(tracer, "eval.roc", static_cast<std::uint64_t>(mode));
      pops.roc();
    }
    replica.emplace(mode, std::move(pops));

    TracedPipeline traced(system);
    for (std::size_t t = 0; t < trials.size(); ++t) {
      vibguard::Rng rng = requests[t].rng;
      const double d = traced.score(*requests[t].va, *requests[t].wearable,
                                    requests[t].segmenter, rng, serial_ws,
                                    tracer, t, counts);
      traced_matches = traced_matches &&
                       (!serial[t].ok() || same_bits(d, serial[t].score));
    }
  }
  report.check(parallel_matches,
               "ThreadPool scoring differs from serial scoring");
  report.check(traced_matches,
               "traced pipeline score differs from DefenseSystem::score");
  report.check(same_populations(replica, reference),
               "traced replica populations differ from ExperimentRunner::run");
}

/// Set-up leaves nothing behind: each repetition builds its own runner.
struct Fig9State {};

}  // namespace

void run_experiment_fig9(const Options& opt, Report& report, Tracer& tracer) {
  // Set-up warms the process (lexicon, phoneme tables, FFT plans) with a
  // small experiment; every measured repetition then builds its own
  // runner, as a caller running a fresh experiment would.
  const std::function<std::unique_ptr<Fig9State>()> setup = [&] {
    eval::ExperimentRunner warm(experiment_config(4), opt.seed ^ 0xfeedULL);
    warm.run(AttackType::kReplay, kModes);
    return std::make_unique<Fig9State>();
  };
  timed_setup(opt, report, setup);

  const eval::ExperimentConfig cfg = experiment_config(kTrialsPerClass);
  Populations reference;
  std::vector<double> latencies, untraced_walls;
  StageCounts counts;
  bool identical = true;
  const Ns start = now_ns();
  const Ns stop = start + static_cast<Ns>(opt.seconds * 1e9);
  Ns now = start;
  double measured_s = 0.0;
  for (int rep = 0; rep == 0 || now < stop; ++rep) {
    const Ns t0 = now_ns();
    eval::ExperimentRunner runner(cfg, opt.seed);
    Populations pops = runner.run(AttackType::kReplay, kModes);
    now = now_ns();
    const double wall_ms = ns_to_ms(static_cast<double>(now - t0));
    measured_s += static_cast<double>(now - t0) * 1e-9;
    untraced_walls.push_back(wall_ms);
    for (const auto& [mode, p] : pops) {
      const std::size_t n = p.legit.size() + p.attack.size() +
                            p.legit_unscored + p.attack_unscored;
      report.attempted += n;
      report.failed += p.legit_unscored + p.attack_unscored;
      latencies.insert(latencies.end(), n, wall_ms);
    }
    if (rep == 0) {
      reference = std::move(pops);
    } else {
      identical = identical && same_populations(pops, reference);
    }
    if (tracer.enabled()) {
      traced_repetition(opt, reference, report, tracer, counts);
      now = now_ns();
    }
  }
  report.check(identical, "a repetition's populations differ from the first");
  const eval::ScorePopulations& full = reference.at(core::DefenseMode::kFull);
  report_detection(opt, detection(full.attack, full.legit), report);

  if (!tracer.enabled()) {
    report_latency(latencies, measured_s, report);
    report.set("ok_share", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  const auto totals = tracer.totals();
  report_stage_metrics(totals, counts, report);
  report_render_metrics(totals, report);
  const auto total_ns = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total);
  };
  const auto count_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 1.0 : static_cast<double>(it->second.count);
  };
  const double render = total_ns("eval.render");
  const double pooled = total_ns("common.pool");
  const double roc = total_ns("eval.roc");
  const double verdicts =
      static_cast<double>(2 * kTrialsPerClass) * count_of("eval.score");
  report.set("eval.render.share", render / (render + pooled + roc));
  report.set("eval.score.ms", ns_to_ms(total_ns("eval.score")) / verdicts);
  report.set("eval.roc.ms", ns_to_ms(roc) / count_of("eval.roc"));
  report.set("common.pool.efficiency",
             total_ns("eval.score") /
                 (static_cast<double>(cfg.threads) * pooled));
  // One traced repetition is render + pooled scoring + ROC; the untraced
  // one is a whole ExperimentRunner::run.
  const double reps = count_of("eval.roc") / static_cast<double>(kModes.size());
  report.set("harness.trace_overhead",
             ns_to_ms((render + pooled + roc) / reps) /
                 quantile(untraced_walls, 0.5));
}

}  // namespace vgbench
