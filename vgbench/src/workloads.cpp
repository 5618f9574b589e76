#include "workloads.hpp"

#include <algorithm>

#include "eval/scenario.hpp"

namespace vgbench {

vibguard::core::DefenseConfig defense_config() {
  const vibguard::eval::ScenarioConfig scenario;
  vibguard::core::DefenseConfig cfg;
  cfg.mode = vibguard::core::DefenseMode::kFull;
  cfg.wearable = scenario.wearable;
  cfg.sync = scenario.sync;
  return cfg;
}

PopulationSpec mixed_population(std::size_t per_class) {
  PopulationSpec spec;
  spec.legit = per_class;
  spec.attack = per_class;
  spec.types = {vibguard::attacks::AttackType::kReplay,
                vibguard::attacks::AttackType::kSynthesis,
                vibguard::attacks::AttackType::kHiddenVoice};
  // A fixed household of one speaker per legitimate command, recorded in
  // eight rooms: command lengths and acoustics then average over many
  // voices and rooms instead of swinging with one seed's few of each.
  spec.speakers = per_class;
  spec.rooms = 8;
  spec.fixed_panel = true;
  return spec;
}

void report_latency(const std::vector<double>& latencies_ms,
                    double elapsed_s, Report& report) {
  report.set("verdict_ms_p50", quantile(latencies_ms, 0.50));
  report.set("verdict_ms_p99", quantile(latencies_ms, 0.99));
  report.set("verdicts_per_s",
             elapsed_s > 0.0
                 ? static_cast<double>(latencies_ms.size()) / elapsed_s
                 : 0.0);
}

void report_render_metrics(const std::map<std::string, SpanTotals>& totals,
                           Report& report) {
  const auto it = totals.find("eval.render");
  if (it == totals.end() || it->second.count == 0) return;
  const double trials = static_cast<double>(it->second.count);
  const auto per_trial = [&](const char* name, bool self) {
    const auto t = totals.find(name);
    if (t == totals.end()) return 0.0;
    return ns_to_ms(static_cast<double>(self ? t->second.self
                                             : t->second.total)) /
           trials;
  };
  report.set("speech.utterance.ms", per_trial("speech.utterance", true));
  report.set("attacks.generate.ms", per_trial("attacks.generate", true));
  report.set("acoustics.barrier.ms", per_trial("acoustics.barrier", true));
  report.set("acoustics.room.ms", per_trial("acoustics.room", true));
  report.set("sensors.mic.ms", per_trial("sensors.mic", true));
  report.set("eval.render.ms", per_trial("eval.render", false));
}

}  // namespace vgbench
