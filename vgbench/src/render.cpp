// The traced render replica: ScenarioSimulator's record path rebuilt from
// the public calls of the layers it composes (speech, attacks, acoustics,
// sensors), each wrapped in a span. Seeded like the simulator, it must
// produce bit-identical recordings; render_population checks that.
#include <algorithm>
#include <cstring>

#include "acoustics/barrier.hpp"
#include "acoustics/room.hpp"
#include "common/db.hpp"
#include "device/sync.hpp"
#include "device/wearable.hpp"
#include "eval/experiment.hpp"
#include "harness.hpp"
#include "sensors/microphone.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace vgbench {

using vibguard::Signal;
using vibguard::eval::TrialRecordings;

namespace {

class RenderReplica {
 public:
  RenderReplica(const vibguard::eval::ScenarioConfig& config,
                std::uint64_t seed);

  vibguard::eval::TrialRecordings legitimate_trial(
      const vibguard::speech::VoiceCommand& command,
      const vibguard::speech::SpeakerProfile& user, Tracer& tracer,
      std::uint64_t request);

  vibguard::eval::TrialRecordings attack_trial(
      vibguard::attacks::AttackType type,
      const vibguard::speech::VoiceCommand& command,
      const vibguard::speech::SpeakerProfile& victim,
      const vibguard::speech::SpeakerProfile& adversary, Tracer& tracer,
      std::uint64_t request);

 private:
  vibguard::eval::TrialRecordings record_pair(const vibguard::Signal& source,
                                              double to_va_m,
                                              double to_wearable_m,
                                              Tracer& tracer,
                                              std::uint64_t request);

  vibguard::eval::ScenarioConfig config_;
  vibguard::Rng rng_;
  vibguard::acoustics::Barrier barrier_;
  vibguard::acoustics::Room room_;
  vibguard::device::Wearable wearable_;
  vibguard::sensors::Microphone va_mic_;
  vibguard::device::SyncChannel sync_;
  vibguard::attacks::AttackGenerator attack_gen_;
  vibguard::speech::UtteranceBuilder builder_;
};

}  // namespace

RenderReplica::RenderReplica(const vibguard::eval::ScenarioConfig& config,
                             std::uint64_t seed)
    : config_(config),
      rng_(seed),
      barrier_(config_.room.barrier_material, config_.barrier_thickness),
      room_(config_.room, rng_.fork(0xacc0)),
      wearable_(config_.wearable),
      va_mic_(config_.va_microphone),
      sync_(config_.sync) {}

TrialRecordings RenderReplica::record_pair(const Signal& source,
                                           double to_va_m,
                                           double to_wearable_m,
                                           Tracer& tracer,
                                           std::uint64_t request) {
  TrialRecordings t;
  Signal at_va, at_wear;
  {
    Scope s(tracer, "acoustics.room", request);
    at_va = room_.render(source, to_va_m);
  }
  {
    Scope s(tracer, "acoustics.room", request);
    at_wear = room_.render(source, to_wearable_m);
  }
  {
    Scope s(tracer, "sensors.mic", request);
    t.va = va_mic_.record(at_va, rng_);
  }
  Signal wear_rec;
  {
    Scope s(tracer, "sensors.mic", request);
    wear_rec = wearable_.record(at_wear, rng_);
  }
  t.true_delay_s = sync_.sample_delay(rng_);
  t.wearable = sync_.delayed_view(wear_rec, t.true_delay_s);
  return t;
}

TrialRecordings RenderReplica::legitimate_trial(
    const vibguard::speech::VoiceCommand& command,
    const vibguard::speech::SpeakerProfile& user, Tracer& tracer,
    std::uint64_t request) {
  Scope trial(tracer, "eval.render", request);
  vibguard::speech::Utterance utt;
  {
    Scope s(tracer, "speech.utterance", request);
    utt = builder_.build(command, user, rng_);
  }
  const double spl = rng_.uniform(config_.user_spl_min, config_.user_spl_max);
  const Signal source = utt.audio.scaled_to_rms(vibguard::spl_to_rms(spl));
  TrialRecordings t = record_pair(source, config_.user_to_va_m,
                                  config_.user_to_wearable_m, tracer, request);
  t.alignment = std::move(utt.alignment);
  t.is_attack = false;
  t.command = command.text;
  return t;
}

TrialRecordings RenderReplica::attack_trial(
    vibguard::attacks::AttackType type,
    const vibguard::speech::VoiceCommand& command,
    const vibguard::speech::SpeakerProfile& victim,
    const vibguard::speech::SpeakerProfile& adversary, Tracer& tracer,
    std::uint64_t request) {
  Scope trial(tracer, "eval.render", request);
  vibguard::attacks::AttackSound attack;
  {
    Scope s(tracer, "attacks.generate", request);
    attack = attack_gen_.generate(type, command, victim, adversary, rng_);
  }
  const Signal emitted =
      attack.audio.scaled_to_rms(vibguard::spl_to_rms(config_.attack_spl));
  Signal through;
  {
    Scope s(tracer, "acoustics.barrier", request);
    through = barrier_.transmit(emitted);
  }
  const double d0 = config_.attacker_to_barrier_m;
  TrialRecordings t =
      record_pair(through, d0 + config_.barrier_to_va_m,
                  d0 + config_.barrier_to_wearable_m, tracer, request);
  t.alignment = std::move(attack.alignment);
  t.is_attack = true;
  t.attack_type = type;
  t.command = attack.command;
  return t;
}

namespace {

constexpr std::uint64_t kPanelSeed = 0x9a7e1ULL;

bool same_samples(const Signal& a, const Signal& b) {
  return a.size() == b.size() && a.sample_rate() == b.sample_rate() &&
         (a.empty() || std::memcmp(a.samples().data(), b.samples().data(),
                                   a.size() * sizeof(double)) == 0);
}

/// True when two renders are identical: samples bit for bit, delay,
/// alignment and labels.
bool same_recordings(const TrialRecordings& a, const TrialRecordings& b) {
  if (!same_samples(a.va, b.va) || !same_samples(a.wearable, b.wearable) ||
      !same_bits(a.true_delay_s, b.true_delay_s) ||
      a.is_attack != b.is_attack || a.command != b.command ||
      a.alignment.size() != b.alignment.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.alignment.size(); ++i) {
    if (a.alignment[i].symbol != b.alignment[i].symbol ||
        a.alignment[i].begin != b.alignment[i].begin ||
        a.alignment[i].end != b.alignment[i].end) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Trial> render_population(std::uint64_t seed,
                                     const PopulationSpec& spec,
                                     Tracer* tracer, Report& report) {
  const vibguard::eval::ScenarioConfig scenario;
  vibguard::Rng speaker_rng(spec.fixed_panel ? kPanelSeed : seed);
  const auto speakers =
      vibguard::speech::sample_population(spec.speakers, speaker_rng);
  const auto lexicon = vibguard::speech::command_lexicon();
  std::vector<vibguard::eval::ScenarioSimulator> sims;
  std::vector<RenderReplica> replicas;
  for (std::size_t k = 0; k < std::max<std::size_t>(1, spec.rooms); ++k) {
    const std::uint64_t sim_seed =
        (seed ^ 0x5ce9a21ULL) + k * 0x9e3779b97f4a7c15ULL;
    sims.emplace_back(scenario, sim_seed);
    if (tracer != nullptr) replicas.emplace_back(scenario, sim_seed);
  }
  const vibguard::Rng score_rng(seed ^ 0x7e57ULL);

  std::vector<Trial> trials;
  trials.reserve(spec.legit + spec.attack);
  bool replica_matches = true;
  const auto push = [&](TrialRecordings rec, TrialRecordings reference) {
    if (tracer != nullptr) {
      replica_matches = replica_matches && same_recordings(rec, reference);
    }
    vibguard::core::OracleSegmenter seg(rec.alignment,
                                        vibguard::eval::reference_sensitive_set());
    const std::size_t index = trials.size();
    trials.push_back(Trial{std::move(rec), std::move(seg),
                           score_rng.fork(index)});
  };
  for (std::size_t i = 0; i < spec.legit; ++i) {
    const auto& user = speakers[i % speakers.size()];
    const auto& cmd = lexicon[i % lexicon.size()];
    auto& sim = sims[trials.size() % sims.size()];
    if (tracer != nullptr) {
      TrialRecordings rec =
          replicas[trials.size() % sims.size()].legitimate_trial(
              cmd, user, *tracer, trials.size());
      push(std::move(rec), sim.legitimate_trial(cmd, user));
    } else {
      push(sim.legitimate_trial(cmd, user), {});
    }
  }
  for (std::size_t i = 0; i < spec.attack; ++i) {
    const auto type = spec.types[i % spec.types.size()];
    const auto& victim = speakers[i % speakers.size()];
    const auto& adversary = speakers[(i + 1) % speakers.size()];
    const auto& cmd = lexicon[(i * 3 + 1) % lexicon.size()];
    auto& sim = sims[trials.size() % sims.size()];
    if (tracer != nullptr) {
      TrialRecordings rec =
          replicas[trials.size() % sims.size()].attack_trial(
              type, cmd, victim, adversary, *tracer, trials.size());
      push(std::move(rec), sim.attack_trial(type, cmd, victim, adversary));
    } else {
      push(sim.attack_trial(type, cmd, victim, adversary), {});
    }
  }
  report.check(replica_matches,
               "traced render replica differs from ScenarioSimulator");
  return trials;
}

}  // namespace vgbench
