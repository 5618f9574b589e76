#include "eval/scenario.hpp"

#include "common/db.hpp"
#include "common/error.hpp"

namespace vibguard::eval {

ScenarioSimulator::ScenarioSimulator(ScenarioConfig config,
                                     std::uint64_t seed)
    : config_(std::move(config)),
      rng_(seed),
      barrier_(config_.room.barrier_material, config_.barrier_thickness),
      room_(config_.room, rng_.fork(0xacc0)),
      wearable_(config_.wearable),
      va_mic_(config_.va_microphone),
      sync_(config_.sync) {}

void ScenarioSimulator::draw_pair(std::size_t samples, double sample_rate,
                                  double to_va_m, double to_wearable_m,
                                  TrialDraw& d) {
  // The room renders keep the source's length and rate.
  d.at_va = room_.draw(samples, sample_rate, to_va_m);
  d.at_wearable = room_.draw(samples, sample_rate, to_wearable_m);
  d.va_noise = va_mic_.draw(samples, sample_rate, rng_);
  d.wearable_noise = wearable_.microphone().draw(samples, sample_rate, rng_);
  d.delay_s = sync_.sample_delay(rng_);
}

TrialRecordings ScenarioSimulator::record_pair(const Signal& source,
                                               const TrialDraw& d) const {
  TrialRecordings t;
  const Signal at_va = room_.realize(source, d.at_va);
  const Signal at_wear = room_.realize(source, d.at_wearable);
  t.va = va_mic_.realize(at_va, d.va_noise);
  Signal wear_rec = wearable_.microphone().realize(at_wear, d.wearable_noise);
  // Network notification delay: the wearable misses the first part.
  t.true_delay_s = d.delay_s;
  t.wearable = sync_.delayed_view(wear_rec, t.true_delay_s);
  return t;
}

TrialRecordings ScenarioSimulator::legitimate_trial(
    const speech::VoiceCommand& command,
    const speech::SpeakerProfile& user) {
  return realize(draw_legitimate(command, user));
}

TrialRecordings ScenarioSimulator::attack_trial(
    attacks::AttackType type, const speech::VoiceCommand& command,
    const speech::SpeakerProfile& victim,
    const speech::SpeakerProfile& adversary) {
  return realize(draw_attack(type, command, victim, adversary));
}

TrialDraw ScenarioSimulator::draw_legitimate(
    const speech::VoiceCommand& command,
    const speech::SpeakerProfile& user) {
  TrialDraw d;
  d.utterance = builder_.draw(command, user, rng_);
  d.spl = rng_.uniform(config_.user_spl_min, config_.user_spl_max);
  draw_pair(d.utterance->samples, d.utterance->sample_rate,
            config_.user_to_va_m, config_.user_to_wearable_m, d);
  return d;
}

TrialDraw ScenarioSimulator::draw_attack(
    attacks::AttackType type, const speech::VoiceCommand& command,
    const speech::SpeakerProfile& victim,
    const speech::SpeakerProfile& adversary) {
  TrialDraw d;
  d.attack = attack_gen_.draw(type, command, victim, adversary, rng_);
  // The barrier is deterministic and keeps the emission's length and rate.
  const double d0 = config_.attacker_to_barrier_m;
  draw_pair(d.attack->samples, d.attack->sample_rate,
            d0 + config_.barrier_to_va_m, d0 + config_.barrier_to_wearable_m,
            d);
  return d;
}

TrialRecordings ScenarioSimulator::realize(const TrialDraw& d) const {
  VIBGUARD_REQUIRE(d.attack.has_value() != d.utterance.has_value(),
                   "a trial draw holds either speech or an attack");
  Signal source;
  std::vector<speech::PhonemeSpan> alignment;
  std::string command;
  if (d.attack) {
    attacks::AttackSound attack = attack_gen_.realize(*d.attack);
    Signal emitted =
        attack.audio.scaled_to_rms(spl_to_rms(config_.attack_spl));
    // Propagation: emitter -> barrier (short hop) -> through barrier ->
    // in-room path to each device. The barrier filter commutes with the
    // (linear) spreading losses, so apply it once and use total distances.
    source = barrier_.transmit(emitted);
    alignment = std::move(attack.alignment);
    command = std::move(attack.command);
  } else {
    speech::Utterance utt = builder_.realize(*d.utterance);
    source = utt.audio.scaled_to_rms(spl_to_rms(d.spl));
    alignment = std::move(utt.alignment);
    command = std::move(utt.text);
  }
  TrialRecordings t = record_pair(source, d);
  t.alignment = std::move(alignment);
  t.is_attack = d.attack.has_value();
  if (d.attack) t.attack_type = d.attack->type;
  t.command = std::move(command);
  return t;
}

Signal ScenarioSimulator::attack_sound_at_va(const Signal& attack_audio,
                                             double attack_spl) {
  Signal emitted = attack_audio.scaled_to_rms(spl_to_rms(attack_spl));
  Signal through = barrier_.transmit(emitted);
  const Signal at_va = room_.render(
      through, config_.attacker_to_barrier_m + config_.barrier_to_va_m);
  return va_mic_.record(at_va, rng_);
}

std::vector<TrialRecordings> render_trials(
    ScenarioSimulator& sim, const std::vector<speech::SpeakerProfile>& speakers,
    std::size_t legit, std::size_t attacks, attacks::AttackType type,
    ThreadPool& pool) {
  VIBGUARD_REQUIRE(!speakers.empty() || legit + attacks == 0,
                   "rendering trials needs at least one speaker");
  const auto lexicon = speech::command_lexicon();
  std::vector<TrialDraw> draws;
  draws.reserve(legit + attacks);
  // Legitimate trials: participants take turns issuing commands.
  for (std::size_t i = 0; i < legit; ++i) {
    const auto& user = speakers[i % speakers.size()];
    const auto& cmd = lexicon[i % lexicon.size()];
    draws.push_back(sim.draw_legitimate(cmd, user));
  }
  // Attack trials: each participant in turn is the victim; a different
  // participant is the adversary (random attacks).
  for (std::size_t i = 0; i < attacks; ++i) {
    const auto& victim = speakers[i % speakers.size()];
    const auto& adversary = speakers[(i + 1) % speakers.size()];
    const auto& cmd = lexicon[(i * 3 + 1) % lexicon.size()];
    draws.push_back(sim.draw_attack(type, cmd, victim, adversary));
  }
  std::vector<TrialRecordings> trials(draws.size());
  pool.parallel_for_indexed(draws.size(), [&](std::size_t, std::size_t i) {
    trials[i] = sim.realize(draws[i]);
  });
  return trials;
}

}  // namespace vibguard::eval
