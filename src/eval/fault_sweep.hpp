// Fault-severity robustness sweep: EER-vs-fault-severity curves.
//
// Renders one fixed population of legitimate and attack trials, then — for
// each severity level of one fault kind — applies the canonical
// severity_plan corruption to deterministic per-trial copies of both
// channels' recordings and scores them through the exception-safe outcome
// batch API.
// The sweep measures two things at once: how detection quality (EER/AUC)
// decays as captures degrade, and how much of the population the quality
// gate diverts into indeterminate outcomes instead of garbage verdicts. By
// construction the sweep never throws out of a trial: every trial ends
// scored, indeterminate, or as a captured per-trial error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/pipeline.hpp"
#include "eval/scenario.hpp"
#include "faults/fault.hpp"

namespace vibguard::eval {

struct FaultSweepConfig {
  ScenarioConfig scenario;
  std::size_t num_speakers = 4;
  std::size_t legit_trials = 20;
  std::size_t attack_trials = 20;
  attacks::AttackType attack = attacks::AttackType::kReplay;
  core::DefenseConfig defense;  ///< quality gate and mode under test
  faults::FaultKind fault = faults::FaultKind::kDropout;
  /// Severity grid; 0 is the uninjected baseline.
  std::vector<double> severities = {0.0, 0.25, 0.5, 0.75, 1.0};
  /// Worker threads: 0 = auto (VIBGUARD_THREADS / hardware), 1 = serial.
  /// Outcomes are bit-identical at every thread count.
  std::size_t threads = 0;
};

/// Results at one severity level.
struct FaultSweepPoint {
  double severity = 0.0;
  std::size_t scored = 0;         ///< trials that produced a real score
  std::size_t indeterminate = 0;  ///< gate-halted / degenerate trials
  std::size_t errors = 0;         ///< captured per-trial stage errors
  /// EER/AUC over the scored trials; NaN when either class kept fewer than
  /// two scores (the curve is meaningless there, not zero).
  double eer = 0.0;
  double auc = 0.0;
};

struct FaultSweepResult {
  faults::FaultKind fault;
  std::string fault_label;  ///< fault_name(fault)
  std::vector<FaultSweepPoint> points;

  /// Multi-line table: one row per severity.
  std::string summary() const;
};

/// Runs the sweep. Deterministic in `seed` (trial rendering, fault
/// corruption and scoring all derive from it) and exception-safe per trial.
FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                 std::uint64_t seed);

}  // namespace vibguard::eval
