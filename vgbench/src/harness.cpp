#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "eval/metrics.hpp"

namespace vgbench {

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", ""},
      {"peak_rss_mb", "MB", ""},
      {"ok_share", "share", ""},
      {"auc", "share", ""},
      {"verdict_ms_p50", "ms", ""},
      {"verdict_ms_p99", "ms", ""},
      {"verdicts_per_s", "1/s", ""},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  constexpr const char* kScoring =
      "verdict_ms_* + verdicts_per_s @ score_warm and serve_closed";
  constexpr const char* kNoMove = "none predicted (<0.3% of a score)";
  constexpr const char* kRender =
      "verdicts_per_s @ experiment_fig9; setup_s elsewhere";
  constexpr const char* kEval = "verdicts_per_s @ experiment_fig9";
  constexpr const char* kServing =
      "verdict_ms_* + verdicts_per_s @ serve_closed; nothing @ score_warm";
  constexpr const char* kStream =
      "none measured (per-layer only; on score_warm's population)";
  static const std::vector<MetricSpec> kMetrics = {
      {"core.quality.ms", "ms", kNoMove},
      {"core.sync.ms", "ms", kScoring},
      {"core.segment.ms", "ms", kNoMove},
      {"core.vib_capture.ms", "ms", kScoring},
      {"core.features.ms", "ms", kNoMove},
      {"core.audio_features.ms", "ms", kEval},
      {"core.correlate.ms", "ms", kNoMove},
      {"core.quality.share", "share", kNoMove},
      {"core.sync.share", "share", kScoring},
      {"core.segment.share", "share", kNoMove},
      {"core.vib_capture.share", "share", kScoring},
      {"core.features.share", "share", kNoMove},
      {"core.audio_features.share", "share", kEval},
      {"core.correlate.share", "share", kNoMove},
      {"core.overhead.share", "share", "none (pipeline loop overhead)"},
      {"sensors.speaker.ms", "ms", kScoring},
      {"sensors.accel.ms", "ms", kScoring},
      {"core.sync.samples_in", "count", "(work count) core.sync.ms"},
      {"core.vib_capture.samples_in", "count",
       "(work count) core.vib_capture.ms"},
      {"core.segment.kept_share", "share", "(work count) core.vib_capture.ms"},
      {"core.features.frames", "count", "(work count) core.features.ms"},
      {"core.allocs_per_cmd", "count", "must stay 0"},
      {"speech.utterance.ms", "ms", kRender},
      {"attacks.generate.ms", "ms", kRender},
      {"acoustics.barrier.ms", "ms", kRender},
      {"acoustics.room.ms", "ms", kRender},
      {"sensors.mic.ms", "ms", kRender},
      {"eval.render.ms", "ms", kRender},
      {"eval.render.share", "share", kRender},
      {"eval.score.ms", "ms", kEval},
      {"eval.roc.ms", "ms", kEval},
      {"eval.eer", "share", "auc (held; checked against config.json)"},
      {"common.pool.efficiency", "share", kEval},
      {"serving.submit_us_p99", "us", kServing},
      {"serving.queue_ms_p50", "ms", kServing},
      {"serving.queue_ms_p99", "ms", kServing},
      {"serving.service_ms", "ms", kServing},
      {"serving.batch_size", "count", kServing},
      {"serving.rejected", "count", "ok_share @ serve_closed"},
      {"serving.expired", "count", "ok_share @ serve_closed"},
      {"serving.worker_skew", "ratio", kServing},
      {"core.stream.push_ms", "ms", kStream},
      {"core.stream.pushes", "count", kStream},
      {"core.stream.finalize_ms", "ms", kStream},
      {"core.stream.fraction_p50", "share", kStream},
      {"core.stream.early_exit_share", "share", kStream},
      {"harness.trace_overhead", "ratio", "none (traced p50 / untraced p50)"},
  };
  return kMetrics;
}

// ── Tracer ─────────────────────────────────────────────────────────────

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    spans_.reserve(1u << 20);
    stack_.reserve(16);
  }
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.request = request;
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  spans_.back().start = now_ns();
  return id;
}

void Tracer::close(std::uint32_t id) {
  const Ns end = now_ns();
  spans_[id - 1].end = end;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::uint32_t Tracer::add(const char* name, Ns start, Ns end,
                          std::uint32_t parent, std::uint64_t request) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children of one span never overlap (one thread, or reconstructed
  // back-to-back phases), so the covered part is the sum of their
  // durations.
  std::vector<Ns> child_time(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent - 1] += s.end - s.start;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const Ns dur = s.end - s.start;
    SpanTotals& t = out[s.name];
    t.total += dur;
    t.self += dur > child_time[i] ? dur - child_time[i] : 0;
    ++t.count;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
      << ",\"end_ns\":" << s.end << ",\"id\":" << i + 1
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(f);
}

// ── Statistics ─────────────────────────────────────────────────────────

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Detection detection(const std::vector<double>& attack,
                    const std::vector<double>& legit) {
  if (attack.empty() || legit.empty()) return {1.0, 0.0};
  const vibguard::eval::RocCurve roc =
      vibguard::eval::compute_roc(attack, legit);
  return {roc.eer, roc.auc};
}

void report_detection(const Options& opt, const Detection& d,
                      Report& report) {
  report.set("auc", d.auc);
  report.set("eval.eer", d.eer);
  std::fprintf(stderr, "[vgbench] %s seed %llu: eer %.9f auc %.9f\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), d.eer, d.auc);
  if (opt.has_expected_eer) {
    char what[160];
    std::snprintf(what, sizeof(what),
                  "eer %.9f differs from the %.9f recorded for this seed",
                  d.eer, opt.expected_eer);
    report.check(std::abs(d.eer - opt.expected_eer) < 5e-7, what);
  }
}

}  // namespace vgbench
