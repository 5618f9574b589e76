#include "core/quality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vibguard::core {
namespace {

/// Amplitude below which a sample counts as "zero" for gap detection.
constexpr double kZeroEps = 1e-9;

struct IssueName {
  std::uint32_t flag;
  const char* name;
  const char* reason;  ///< phrasing used for QualityReport::reason
};

// Priority order: when several fatal issues are raised, the first match
// becomes the report's reason.
constexpr IssueName kIssueNames[] = {
    {kIssueNonFinite, "non_finite", "non_finite_samples"},
    {kIssueTooShort, "too_short", "too_short"},
    {kIssueLowSignal, "low_signal", "low_signal"},
    {kIssueDesync, "desync", "desync"},
    {kIssueClipping, "clipping", "clipping"},
    {kIssueGaps, "gaps", "gaps"},
    {kIssueStuck, "stuck", "stuck_sensor"},
    {kIssueDcOffset, "dc_offset", "dc_offset"},
};

}  // namespace

std::string quality_issue_names(std::uint32_t issues) {
  if (issues == 0) return "none";
  std::string out;
  for (const IssueName& entry : kIssueNames) {
    if ((issues & entry.flag) == 0) continue;
    if (!out.empty()) out += '+';
    out += entry.name;
  }
  return out.empty() ? "unknown" : out;
}

ChannelQuality assess_channel(const Signal& signal, const QualityConfig& cfg) {
  ChannelQuality q;
  q.samples = signal.size();
  q.duration_s = signal.duration();
  if (signal.empty()) {
    q.issues |= kIssueTooShort | kIssueLowSignal;
    return q;
  }
  const double rate = signal.sample_rate();
  const std::size_t min_gap = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.min_gap_s * rate));
  const std::size_t n = signal.size();

  // Pass 1, strictly left to right: moments over the finite samples, the
  // zero-run (gap) census and the constant-run (stuck sensor) census.
  double sum = 0.0;
  double sum_sq = 0.0;
  double peak = 0.0;
  std::size_t finite_count = 0;
  std::size_t zero_run = 0;
  std::size_t gap_samples = 0;
  std::size_t longest_gap = 0;
  std::size_t const_run = 1;
  std::size_t longest_const = 0;
  double prev = 0.0;
  bool have_prev = false;
  for (const double x : signal.samples()) {
    if (!std::isfinite(x)) {
      ++q.non_finite;
      // A non-finite sample terminates both runs.
      if (zero_run >= min_gap) {
        gap_samples += zero_run;
        longest_gap = std::max(longest_gap, zero_run);
      }
      zero_run = 0;
      longest_const =
          std::max(longest_const, have_prev ? const_run : std::size_t{0});
      have_prev = false;
      continue;
    }
    ++finite_count;
    sum += x;
    sum_sq += x * x;
    peak = std::max(peak, std::abs(x));

    if (std::abs(x) <= kZeroEps) {
      ++zero_run;
    } else {
      if (zero_run >= min_gap) {
        gap_samples += zero_run;
        longest_gap = std::max(longest_gap, zero_run);
      }
      zero_run = 0;
    }

    if (have_prev && x == prev && std::abs(x) > kZeroEps) {
      ++const_run;
    } else {
      longest_const =
          std::max(longest_const, have_prev ? const_run : std::size_t{0});
      const_run = 1;
    }
    prev = x;
    have_prev = true;
  }
  // Close the trailing runs.
  if (zero_run >= min_gap) {
    gap_samples += zero_run;
    longest_gap = std::max(longest_gap, zero_run);
  }
  longest_const =
      std::max(longest_const, have_prev ? const_run : std::size_t{0});

  if (finite_count > 0) {
    const double inv = 1.0 / static_cast<double>(finite_count);
    q.dc_offset = sum * inv;
    q.rms = std::sqrt(sum_sq * inv);
    q.peak = peak;
  }
  q.gap_ratio = static_cast<double>(gap_samples) / static_cast<double>(n);
  q.longest_gap_s = rate > 0.0 ? static_cast<double>(longest_gap) / rate : 0.0;
  q.stuck_ratio = static_cast<double>(longest_const) / static_cast<double>(n);

  // Pass 2: clipping census needs the peak from pass 1.
  if (peak > 0.0) {
    const double clip_level = cfg.clip_level_fraction * peak;
    std::size_t clipped = 0;
    for (const double x : signal.samples()) {
      if (std::isfinite(x) && std::abs(x) >= clip_level) ++clipped;
    }
    q.clip_ratio = static_cast<double>(clipped) / static_cast<double>(n);
  }

  if (q.non_finite > 0) q.issues |= kIssueNonFinite;
  if (q.duration_s < cfg.min_duration_s) q.issues |= kIssueTooShort;
  if (q.rms < cfg.min_rms) q.issues |= kIssueLowSignal;
  if (q.clip_ratio > cfg.max_clip_ratio) q.issues |= kIssueClipping;
  if (q.gap_ratio > cfg.max_gap_ratio) q.issues |= kIssueGaps;
  if (q.rms > 0.0 && std::abs(q.dc_offset) > cfg.max_dc_fraction * q.rms) {
    q.issues |= kIssueDcOffset;
  }
  if (q.stuck_ratio > cfg.max_stuck_ratio) q.issues |= kIssueStuck;
  return q;
}

std::uint32_t fatal_issue_mask(QualityConfig::Gate gate) {
  switch (gate) {
    case QualityConfig::Gate::kOff:
      return 0;
    case QualityConfig::Gate::kPermissive:
      return kIssueNonFinite | kIssueTooShort | kIssueLowSignal;
    case QualityConfig::Gate::kStrict:
      return ~std::uint32_t{0};
  }
  return ~std::uint32_t{0};
}

void apply_gate(const QualityConfig& cfg, QualityReport& report) {
  report.fatal = report.issues & fatal_issue_mask(cfg.gate);
  report.scoreable = report.fatal == 0;
  report.reason = "ok";
  if (report.scoreable) return;
  for (const IssueName& entry : kIssueNames) {
    if ((report.fatal & entry.flag) != 0) {
      report.reason = entry.reason;
      return;
    }
  }
  report.reason = "unscoreable";
}

void assess_pair(const Signal& va, const Signal& wearable,
                 const QualityConfig& cfg, QualityReport& report) {
  report.clear();
  report.va = assess_channel(va, cfg);
  report.wearable = assess_channel(wearable, cfg);
  report.issues = report.va.issues | report.wearable.issues;
  apply_gate(cfg, report);
}

void QualityReport::clear() {
  va = ChannelQuality{};
  wearable = ChannelQuality{};
  issues = 0;
  fatal = 0;
  scoreable = true;
  reason = "ok";
}

std::string QualityReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s (issues=%s) va[rms=%.3g clip=%.0f%% gap=%.0f%%] "
                "wear[rms=%.3g clip=%.0f%% gap=%.0f%%]",
                scoreable ? "scoreable" : reason,
                quality_issue_names(issues).c_str(), va.rms,
                100.0 * va.clip_ratio, 100.0 * va.gap_ratio, wearable.rms,
                100.0 * wearable.clip_ratio, 100.0 * wearable.gap_ratio);
  return buf;
}

}  // namespace vibguard::core
