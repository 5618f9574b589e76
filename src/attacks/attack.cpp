#include "attacks/attack.hpp"

#include <cmath>
#include <numbers>

#include "common/db.hpp"
#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"

namespace vibguard::attacks {

std::vector<AttackType> all_attack_types() {
  return {AttackType::kRandom, AttackType::kReplay, AttackType::kSynthesis,
          AttackType::kHiddenVoice};
}

std::string attack_name(AttackType type) {
  switch (type) {
    case AttackType::kRandom: return "random";
    case AttackType::kReplay: return "replay";
    case AttackType::kSynthesis: return "synthesis";
    case AttackType::kHiddenVoice: return "hidden_voice";
  }
  throw InvalidArgument("unknown attack type");
}

device::CommandKind command_kind(AttackType type) {
  switch (type) {
    case AttackType::kRandom: return device::CommandKind::kLiveVoice;
    case AttackType::kReplay: return device::CommandKind::kReplay;
    case AttackType::kSynthesis: return device::CommandKind::kSynthesized;
    case AttackType::kHiddenVoice: return device::CommandKind::kHiddenVoice;
  }
  throw InvalidArgument("unknown attack type");
}

AttackGenerator::AttackGenerator(AttackGeneratorConfig config)
    : config_(config), builder_(config.synth), playback_(config.playback) {}

AttackSound AttackGenerator::random_attack(
    const speech::VoiceCommand& command,
    const speech::SpeakerProfile& adversary, Rng& rng) const {
  return realize(draw_speech(AttackType::kRandom, command, adversary, rng));
}

AttackSound AttackGenerator::replay_attack(
    const speech::VoiceCommand& command,
    const speech::SpeakerProfile& victim, Rng& rng) const {
  return realize(draw_speech(AttackType::kReplay, command, victim, rng));
}

AttackSound AttackGenerator::synthesis_attack(
    const speech::VoiceCommand& command,
    const speech::SpeakerProfile& victim, Rng& rng) const {
  return realize(draw_speech(AttackType::kSynthesis, command, victim, rng));
}

AttackSound AttackGenerator::hidden_voice_attack(
    const std::string& command_text, Rng& rng, double duration_s) const {
  return realize(draw_hidden_voice(command_text, rng, duration_s));
}

AttackSound AttackGenerator::generate(AttackType type,
                                      const speech::VoiceCommand& command,
                                      const speech::SpeakerProfile& victim,
                                      const speech::SpeakerProfile& adversary,
                                      Rng& rng) const {
  return realize(draw(type, command, victim, adversary, rng));
}

AttackDraw AttackGenerator::draw(AttackType type,
                                 const speech::VoiceCommand& command,
                                 const speech::SpeakerProfile& victim,
                                 const speech::SpeakerProfile& adversary,
                                 Rng& rng) const {
  switch (type) {
    case AttackType::kRandom:
      return draw_speech(type, command, adversary, rng);
    case AttackType::kReplay:
    case AttackType::kSynthesis:
      return draw_speech(type, command, victim, rng);
    case AttackType::kHiddenVoice:
      return draw_hidden_voice(command.text, rng, kCommandDurationS);
  }
  throw InvalidArgument("unknown attack type");
}

AttackDraw AttackGenerator::draw_speech(AttackType type,
                                        const speech::VoiceCommand& command,
                                        const speech::SpeakerProfile& speaker,
                                        Rng& rng) const {
  AttackDraw d;
  d.type = type;
  d.command = command.text;
  if (type == AttackType::kSynthesis) {
    // A few-shot clone of the victim speaks the command.
    const auto clone = speech::clone_with_estimation_error(speaker, rng);
    d.utterance = builder_.draw(command, clone, rng);
  } else {
    d.utterance = builder_.draw(command, speaker, rng);
  }
  d.samples = d.utterance->samples;
  d.sample_rate = d.utterance->sample_rate;
  if (type == AttackType::kReplay) {
    d.recording_noise = rng.take_gaussians(d.samples);
  }
  return d;
}

AttackDraw AttackGenerator::draw_hidden_voice(const std::string& command_text,
                                              Rng& rng,
                                              double duration_s) const {
  VIBGUARD_REQUIRE(duration_s > 0.0, "duration must be positive");
  AttackDraw d;
  d.type = AttackType::kHiddenVoice;
  d.command = command_text;
  d.sample_rate = config_.synth.sample_rate;
  const double syllable_s = 1.0 / config_.hidden_voice_syllable_hz;
  for (double t0 = 0.0; t0 < duration_s; t0 += syllable_s) {
    const double seg_s = std::min(syllable_s, duration_s - t0);
    const auto n = static_cast<std::size_t>(std::round(seg_s * d.sample_rate));
    AttackDraw::Syllable syl{seg_s, rng.take_gaussians(n), {}, {}};
    // Three random broad resonances standing in for inverted formants.
    for (int k = 0; k < 3; ++k) {
      syl.centers[k] = rng.uniform(300.0, 5200.0);
      syl.widths[k] = rng.uniform(150.0, 400.0);
    }
    d.syllables.push_back(syl);
    d.samples += n;
  }
  d.envelope_phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return d;
}

AttackSound AttackGenerator::realize(const AttackDraw& d) const {
  if (d.type == AttackType::kHiddenVoice) return realize_hidden_voice(d);
  VIBGUARD_REQUIRE(d.utterance.has_value(),
                   "a speech attack's draw must hold its utterance");
  speech::Utterance utt = builder_.realize(*d.utterance);
  Signal emitted;
  switch (d.type) {
    case AttackType::kRandom:
      // The adversary speaks live: no playback chain.
      emitted = std::move(utt.audio);
      break;
    case AttackType::kReplay: {
      // The adversary's copy of the victim's voice passed through a
      // recording chain once (mild noise) and is now replayed through a
      // loudspeaker.
      Signal rec = std::move(utt.audio);
      Rng noise = *d.recording_noise;
      for (double& s : rec) s += noise.gaussian(0.0, 5e-4);
      emitted = playback_.render(rec);
      break;
    }
    case AttackType::kSynthesis: {
      // Neural vocoders over-smooth fine spectral structure; approximate
      // with a gentle high-frequency shelf.
      Signal smoothed = dsp::apply_gain_curve(utt.audio, [](double f) {
        return 1.0 / (1.0 + std::pow(f / 6500.0, 4.0));
      });
      emitted = playback_.render(smoothed);
      break;
    }
    case AttackType::kHiddenVoice:
      break;
  }
  return {d.type, std::move(emitted), d.command, std::move(utt.alignment)};
}

AttackSound AttackGenerator::realize_hidden_voice(const AttackDraw& d) const {
  const double fs = d.sample_rate;
  // Obfuscated commands keep the command's coarse spectro-temporal
  // structure but discard phonetic detail: noise carriers shaped by
  // formant-like resonances that change per syllable, band-limited to
  // 0–6 kHz, under a syllabic amplitude modulation. (Hidden voice commands
  // are derived from real speech by feature inversion, so broad spectral
  // peaks survive even though intelligibility does not.)
  const double lo = config_.hidden_voice_low_hz;
  const double hi = config_.hidden_voice_high_hz;
  Signal shaped({}, fs);
  for (const AttackDraw::Syllable& syl : d.syllables) {
    Rng rng = syl.noise;
    Signal noise = dsp::white_noise(syl.duration_s, fs, 1.0, rng);
    Signal seg = dsp::apply_gain_curve(noise, [lo, hi, &syl](double f) {
      const double g_lo =
          1.0 / (1.0 + std::pow(lo / std::max(f, 1e-3), 2.0));
      const double g_hi = 1.0 / (1.0 + std::pow(f / hi, 6.0));
      double peaks = 0.15;  // broadband floor
      for (int k = 0; k < 3; ++k) {
        const double z = (f - syl.centers[k]) / syl.widths[k];
        peaks += std::exp(-0.5 * z * z);
      }
      return g_lo * g_hi * peaks;
    });
    shaped.append(seg);
  }
  const double rate = config_.hidden_voice_syllable_hz;
  for (std::size_t i = 0; i < shaped.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    const double env =
        0.55 +
        0.45 * std::sin(2.0 * std::numbers::pi * rate * t + d.envelope_phase);
    shaped[i] *= env;
  }
  shaped = shaped.scaled_to_rms(kReferenceRms);
  return {AttackType::kHiddenVoice, playback_.render(shaped), d.command, {}};
}

}  // namespace vibguard::attacks
