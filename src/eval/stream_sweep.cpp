#include "eval/stream_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/segmentation.hpp"
#include "eval/confidence.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "speech/speaker.hpp"

namespace vibguard::eval {
namespace {

struct EvalTrial {
  bool is_attack = false;
  bool scored = false;      ///< batch scoring produced a real score
  double batch_score = 0.0;
};

/// Result of streaming one trial: the finalize outcome plus the fraction of
/// the trial's VA samples that had been pushed when the verdict was
/// rendered (1.0 when the stream ran to completion).
struct StreamedTrial {
  core::StreamOutcome outcome;
  double fraction = 1.0;
};

/// Streams `trial` through `pipeline` in `frame_samples` pushes, stopping
/// as soon as the pipeline renders a verdict (early exit or fail-closed) —
/// exactly what a serving caller would do.
StreamedTrial stream_trial(core::StreamingPipeline& pipeline,
                           const TrialRecordings& trial,
                           const core::Segmenter* segmenter, const Rng& rng,
                           std::size_t frame_samples) {
  pipeline.begin(trial.va.sample_rate(), segmenter, rng);
  const std::size_t total =
      std::max(trial.va.size(), trial.wearable.size());
  const double va_total = static_cast<double>(trial.va.size());
  StreamedTrial result;
  for (std::size_t offset = 0; offset < total; offset += frame_samples) {
    const auto frame_of = [&](const Signal& s) {
      const std::size_t begin = std::min(offset, s.size());
      const std::size_t end = std::min(offset + frame_samples, s.size());
      return s.samples().subspan(begin, end - begin);
    };
    const core::StreamStatus st =
        pipeline.push(frame_of(trial.va), frame_of(trial.wearable));
    if (st.verdict != core::StreamVerdict::kPending) {
      const double consumed = static_cast<double>(
          std::min(offset + frame_samples, trial.va.size()));
      result.fraction = std::min(1.0, consumed / va_total);
      break;
    }
  }
  result.outcome = pipeline.finalize();
  return result;
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

StreamSweepResult run_stream_sweep(const StreamSweepConfig& config,
                                   std::uint64_t seed) {
  VIBGUARD_REQUIRE(config.calib_trials >= 2 && config.eval_trials >= 2,
                   "need at least two trials per class in each pass");
  VIBGUARD_REQUIRE(config.frame_samples > 0, "frame size must be positive");
  VIBGUARD_REQUIRE(config.defense.mode == core::DefenseMode::kFull,
                   "anytime verdicts need kFull mode");
  VIBGUARD_REQUIRE(config.num_speakers >= 2,
                   "need at least two speakers (victim + adversary)");

  core::DefenseConfig defense = config.defense;
  defense.wearable = config.scenario.wearable;
  defense.sync = config.scenario.sync;
  const core::DefenseSystem system(defense);

  Rng speaker_rng(seed);
  const auto speakers =
      speech::sample_population(config.num_speakers, speaker_rng);
  ScenarioSimulator sim(config.scenario, seed ^ 0x5ce9a21ULL);
  const Rng score_rng(seed ^ 0x7e57ULL);

  // Render calibration then evaluation trials (legit before attack within
  // each pass), consuming the simulator's one rng stream in a fixed order.
  ThreadPool pool(std::min(recommended_threads(),
                           2 * std::max(config.calib_trials,
                                        config.eval_trials)));
  std::vector<TrialRecordings> trials =
      render_trials(sim, speakers, config.calib_trials, config.calib_trials,
                    config.attack, pool);
  for (TrialRecordings& trial :
       render_trials(sim, speakers, config.eval_trials, config.eval_trials,
                     config.attack, pool)) {
    trials.push_back(std::move(trial));
  }
  const std::size_t calib_count = 2 * config.calib_trials;

  std::vector<core::OracleSegmenter> oracles;
  oracles.reserve(trials.size());
  for (const TrialRecordings& trial : trials) {
    oracles.emplace_back(trial.alignment, reference_sensitive_set());
  }

  // Pass 1 — calibration: stream to completion, collect the provisional
  // (segment), coarse (whole-prefix) and exact batch score of every trial,
  // and fit one calibration per scale.
  core::StreamingConfig calib_cfg = config.streaming;
  calib_cfg.stop = core::StoppingRule{};  // disabled: run to completion
  calib_cfg.finalize = core::StreamingConfig::Finalize::kExactBatch;
  core::StreamingPipeline pipeline(system, calib_cfg);

  std::vector<double> prov_attack, prov_legit, coarse_attack, coarse_legit,
      batch_attack, batch_legit;
  for (std::size_t t = 0; t < calib_count; ++t) {
    const TrialRecordings& trial = trials[t];
    const StreamedTrial st = stream_trial(pipeline, trial, &oracles[t],
                                          score_rng.fork(t),
                                          config.frame_samples);
    // fit() skips indeterminate scores.
    (trial.is_attack ? prov_attack : prov_legit)
        .push_back(st.outcome.provisional_score);
    (trial.is_attack ? coarse_attack : coarse_legit)
        .push_back(st.outcome.coarse_score);
    if (st.outcome.outcome.ok()) {
      (trial.is_attack ? batch_attack : batch_legit)
          .push_back(st.outcome.outcome.score);
    }
  }
  ScoreCalibration prov_calib, coarse_calib, batch_calib;
  const auto determinate = [](const std::vector<double>& xs) {
    return static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(), [](double s) {
          return !core::is_indeterminate_score(s);
        }));
  };
  if (determinate(prov_attack) >= 2 && determinate(prov_legit) >= 2) {
    prov_calib.fit(prov_attack, prov_legit);
  }
  const bool have_coarse =
      determinate(coarse_attack) >= 2 && determinate(coarse_legit) >= 2;
  if (have_coarse) coarse_calib.fit(coarse_attack, coarse_legit);
  if (batch_attack.size() >= 2 && batch_legit.size() >= 2) {
    batch_calib.fit(batch_attack, batch_legit);
  }

  // Pass 2 — exact batch scores of the evaluation trials (identical to a
  // run-to-completion kExactBatch stream, at a fraction of the cost).
  std::vector<EvalTrial> evals;
  evals.reserve(trials.size() - calib_count);
  {
    core::Workspace workspace;
    for (std::size_t t = calib_count; t < trials.size(); ++t) {
      const TrialRecordings& trial = trials[t];
      Rng rng = score_rng.fork(t);
      const core::ScoreOutcome out = system.try_score(
          trial.va, trial.wearable, &oracles[t], rng, workspace);
      EvalTrial ev;
      ev.is_attack = trial.is_attack;
      ev.scored = out.ok();
      ev.batch_score = out.score;
      evals.push_back(ev);
    }
  }

  StreamSweepResult result;
  result.calib_trials = calib_count;
  result.eval_trials = evals.size();

  std::vector<double> batch_a, batch_l;
  for (const EvalTrial& ev : evals) {
    if (!ev.scored) {
      ++result.unscored;
      continue;
    }
    (ev.is_attack ? batch_a : batch_l).push_back(ev.batch_score);
  }
  VIBGUARD_REQUIRE(!batch_a.empty() && !batch_l.empty(),
                   "evaluation pass produced an empty score population");
  result.batch_eer = compute_roc(batch_a, batch_l).eer;

  // Pass 3 — one live streaming run per exit-confidence row: the actual
  // stopping rule armed at that confidence, pushes stopping the moment a
  // verdict is rendered. An exited trial is decided by its posterior at
  // exit; a completed trial by its (calibrated) batch score. An exit at
  // confidence >= c is by construction a more extreme decision than any
  // completed trial (the rule never fired there), so completed decisions
  // are mapped into the open band (1-c, c) while exits land outside it:
  // attack exits in [0, 1-c], accept exits in [c, 1]. This preserves the
  // batch ROC ordering among completers and never ranks a completed trial
  // above (or below) an explicit early verdict.
  for (const double c : config.exit_confidences) {
    core::StreamingConfig row_cfg = config.streaming;
    row_cfg.stop.enabled = true;
    row_cfg.stop.attack_confidence = c;
    row_cfg.stop.accept_confidence = c;
    row_cfg.stop.confidence = &prov_calib;
    row_cfg.stop.coarse_confidence = have_coarse ? &coarse_calib : nullptr;
    // A completed stream's score comes from pass 2; skip the batch rerun.
    row_cfg.finalize = core::StreamingConfig::Finalize::kProvisional;
    pipeline.set_config(row_cfg);

    StreamSweepRow row;
    row.exit_confidence = c;
    std::vector<double> dec_a, dec_l, fractions;
    std::size_t exits = 0;
    for (std::size_t t = calib_count; t < trials.size(); ++t) {
      const EvalTrial& ev = evals[t - calib_count];
      const StreamedTrial st = stream_trial(pipeline, trials[t], &oracles[t],
                                            score_rng.fork(t),
                                            config.frame_samples);
      double decision = 0.0;
      double fraction = 1.0;
      if (st.outcome.early_exit) {
        decision = 1.0 - st.outcome.posterior_attack;
        fraction = st.fraction;
        ++exits;
      } else {
        if (!ev.scored) continue;  // completed but unscoreable: excluded
        const double p_legit =
            1.0 - batch_calib.posterior_attack(ev.batch_score);
        const double band = std::max(0.0, 2.0 * c - 1.0);
        decision = (1.0 - c) + p_legit * band;
      }
      fractions.push_back(fraction);
      (ev.is_attack ? dec_a : dec_l).push_back(decision);
    }
    row.eer = dec_a.empty() || dec_l.empty()
                  ? 1.0
                  : compute_roc(dec_a, dec_l).eer;
    row.early_exit_rate =
        evals.empty() ? 0.0
                      : static_cast<double>(exits) /
                            static_cast<double>(evals.size());
    row.median_fraction = median_of(fractions);
    double sum = 0.0;
    for (const double f : fractions) sum += f;
    row.mean_fraction =
        fractions.empty() ? 1.0 : sum / static_cast<double>(fractions.size());
    result.rows.push_back(row);
  }
  return result;
}

std::string StreamSweepResult::summary() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "| exit confidence | EER (%%) | dEER (pts) | early-exit rate "
                "| median fraction | mean fraction |\n"
                "|---|---|---|---|---|---|\n");
  out += line;
  std::snprintf(line, sizeof(line),
                "| batch (no exit) | %.2f | — | 0.00 | 1.00 | 1.00 |\n",
                100.0 * batch_eer);
  out += line;
  for (const StreamSweepRow& row : rows) {
    std::snprintf(line, sizeof(line),
                  "| %.2f | %.2f | %+.2f | %.2f | %.2f | %.2f |\n",
                  row.exit_confidence, 100.0 * row.eer,
                  100.0 * (row.eer - batch_eer), row.early_exit_rate,
                  row.median_fraction, row.mean_fraction);
    out += line;
  }
  return out;
}

}  // namespace vibguard::eval
