// Shared machinery of the end-to-end benchmark: options, the result
// report, the in-memory span tracer, statistics helpers and the seeded
// trial populations every workload scores.
//
// The benchmark drives the library only through its public API and hands
// it nothing but rendered recordings. Timing uses the benchmark's own
// nanosecond steady clock; spans are recorded around calls into each
// layer's public functions, kept in memory and written out at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "common/rng.hpp"
#include "core/segmentation.hpp"
#include "eval/scenario.hpp"

namespace vgbench {

using Ns = std::uint64_t;

inline Ns now_ns() {
  return static_cast<Ns>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
}

inline double ns_to_ms(double ns) { return ns * 1e-6; }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  /// The EER recorded for this (workload, seed); checked when set.
  bool has_expected_eer = false;
  double expected_eer = 0.0;
  std::string commit = "unknown";
};

/// One workload's outcome. Workloads fill end-to-end values in untraced
/// runs and per-layer values in traced runs; main prints the set the run
/// asked for.
struct Report {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed correctness check; the run then reports
  /// correct=false and exits non-zero.
  void check(bool ok, const std::string& what);
};

struct MetricSpec {
  const char* name;
  const char* unit;
  /// The end-to-end metric (and workload) this one should move.
  const char* moves;
};

/// The metric tables, in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// ── Tracing ────────────────────────────────────────────────────────────

struct Span {
  const char* name = "";
  Ns start = 0;
  Ns end = 0;
  std::uint32_t parent = 0;  ///< 0 = root; otherwise the parent's id
  std::uint64_t request = 0;
};

struct SpanTotals {
  Ns self = 0;   ///< duration minus the time its child spans cover
  Ns total = 0;  ///< inclusive duration
  std::size_t count = 0;
};

/// In-memory span recorder for one thread. Span ids are 1-based indices
/// into spans(). A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span.
  std::uint32_t open(const char* name, std::uint64_t request);
  void close(std::uint32_t id);

  /// Records a finished span from timestamps measured elsewhere (e.g. on
  /// another thread); `parent` 0 makes it a root.
  std::uint32_t add(const char* name, Ns start, Ns end, std::uint32_t parent,
                    std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self and inclusive time per span name.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes one JSON object per span: name, start, end, id, parent,
  /// request. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, request) : 0) {}
  ~Scope() {
    if (id_ != 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ── Statistics ─────────────────────────────────────────────────────────

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// True when the two doubles have identical bit patterns.
bool same_bits(double a, double b);

/// EER and AUC of attack-vs-legitimate scores (lower = attack).
struct Detection {
  double eer = 0.0;
  double auc = 0.0;
};
Detection detection(const std::vector<double>& attack,
                    const std::vector<double>& legit);

/// Records the detection quality in the report and checks the EER against
/// the value recorded for this seed, when one is recorded.
void report_detection(const Options& opt, const Detection& d, Report& report);

// ── Populations ────────────────────────────────────────────────────────

/// One rendered command and what scoring it needs.
struct Trial {
  vibguard::eval::TrialRecordings rec;
  vibguard::core::OracleSegmenter segmenter;
  vibguard::Rng rng;  ///< the command's own scoring stream
};

struct PopulationSpec {
  std::size_t legit = 24;
  std::size_t attack = 24;
  /// Attack i uses types[i % types.size()].
  std::vector<vibguard::attacks::AttackType> types = {
      vibguard::attacks::AttackType::kReplay};
  std::size_t speakers = 6;
  /// Acoustic environments: trial i is rendered by simulator i % rooms.
  std::size_t rooms = 1;
  /// Draw the speaker panel from a fixed seed instead of the run's seed:
  /// the panel is then the deployment's household, the same in every run,
  /// while the seed still draws everything recorded.
  bool fixed_panel = false;
};

/// Renders a population the way ExperimentRunner::run does: speakers from
/// Rng(seed), one ScenarioSimulator seeded with seed ^ 0x5ce9a21 (further
/// rooms get further seeds), legit trials first, commands cycling through
/// the lexicon. With a tracer, the trials come from the traced render
/// replica (render.hpp), which must reproduce the simulators' recordings
/// exactly; `report` receives that check.
std::vector<Trial> render_population(std::uint64_t seed,
                                     const PopulationSpec& spec,
                                     Tracer* tracer, Report& report);

}  // namespace vgbench
