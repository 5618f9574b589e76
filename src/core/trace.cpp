#include "core/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace vibguard::core {

void PipelineTrace::begin_run() {
  estimated_delay_s = 0.0;
  num_ranges = 0;
  segment_seconds = 0.0;
  quality.clear();
  stages.clear();
}

void PipelineTrace::append(const PipelineTrace& other) {
  stages.insert(stages.end(), other.stages.begin(), other.stages.end());
}

void PipelineStats::add(const PipelineTrace& trace) {
  ++commands;
  for (const StageTrace& st : trace.stages) {
    auto it = std::find_if(
        stages.begin(), stages.end(),
        [&st](const StageStats& s) { return s.name == st.name; });
    if (it == stages.end()) {
      stages.emplace_back();
      it = stages.end() - 1;
      it->name = st.name;
    }
    // `commands` was already incremented, so it is a nonzero id for this
    // trial; a stage appearing many times in one trace (streaming pushes)
    // still counts one trial.
    if (it->last_seen != commands) {
      it->last_seen = commands;
      ++it->trials;
    }
    ++it->calls;
    it->total_wall_us += st.wall_us;
    it->max_wall_us = std::max(it->max_wall_us, st.wall_us);
    it->total_allocations += st.allocations;
  }
}

void PipelineStats::clear() {
  commands = 0;
  stages.clear();
}

std::string PipelineStats::summary() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "pipeline stats over %llu command(s)\n",
                static_cast<unsigned long long>(commands));
  out += line;
  std::snprintf(line, sizeof(line),
                "  %-14s %8s %8s %9s %10s %10s %10s %8s\n", "stage", "calls",
                "trials", "per-trial", "push us", "trial us", "max us",
                "allocs");
  out += line;
  for (const StageStats& s : stages) {
    std::snprintf(line, sizeof(line),
                  "  %-14s %8llu %8llu %9.1f %10.1f %10.1f %10llu %8llu\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.trials),
                  s.mean_calls_per_trial(), s.mean_wall_us(),
                  s.mean_wall_per_trial_us(),
                  static_cast<unsigned long long>(s.max_wall_us),
                  static_cast<unsigned long long>(s.total_allocations));
    out += line;
  }
  return out;
}

}  // namespace vibguard::core
