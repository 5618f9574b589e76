// Thru-barrier attack sound generators (threat model, paper Sec. II).
//
// Every generator returns the waveform the adversary's playback device (or
// own voice) emits just outside the barrier; the evaluation harness then
// passes it through Barrier + Room + device microphones.
//
//   Random attack     — the adversary speaks the command in their own voice.
//   Replay attack     — a loudspeaker replays a genuine recording of the
//                       victim.
//   Synthesis attack  — a few-shot TTS model speaks the command in an
//                       estimate of the victim's voice.
//   Hidden voice      — an obfuscated, noise-like signal spanning 0–6 kHz
//                       that machines recognize but humans do not (ref [3]).
//
// Like speech synthesis, generation splits into draw() — every Rng use, in
// the one-call order — and a pure realize().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "device/va_device.hpp"
#include "sensors/speaker.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace vibguard::attacks {

enum class AttackType {
  kRandom,
  kReplay,
  kSynthesis,
  kHiddenVoice,
};

/// All four attack types, in paper order.
std::vector<AttackType> all_attack_types();

/// Human-readable attack name ("random", "replay", ...).
std::string attack_name(AttackType type);

/// CommandKind the VA's wake-word model perceives for this attack.
device::CommandKind command_kind(AttackType type);

/// One generated attack emission.
struct AttackSound {
  AttackType type;
  Signal audio;        ///< waveform at the adversary's playback device
  std::string command; ///< textual command being attacked
  /// Phoneme alignment of the underlying utterance (empty for hidden-voice
  /// attacks, which contain no phonemes).
  std::vector<speech::PhonemeSpan> alignment;
};

/// Everything one generate() call draws, in its draw order.
struct AttackDraw {
  /// One hidden-voice syllable: its noise carrier and three resonances.
  struct Syllable {
    double duration_s;
    Rng noise;  ///< reserved white noise
    double centers[3];
    double widths[3];
  };
  AttackType type = AttackType::kRandom;
  std::string command;
  /// The spoken command (random, replay and synthesis attacks).
  std::optional<speech::UtteranceDraw> utterance;
  /// Replay: the recording chain's reserved noise.
  std::optional<Rng> recording_noise;
  std::vector<Syllable> syllables;  ///< hidden voice only
  double envelope_phase = 0.0;      ///< hidden voice only
  std::size_t samples = 0;          ///< length of the realized emission
  double sample_rate = 0.0;         ///< its sample rate
};

struct AttackGeneratorConfig {
  speech::SynthesizerConfig synth;
  sensors::SpeakerConfig playback = sensors::playback_loudspeaker();
  double hidden_voice_low_hz = 50.0;    ///< hidden commands span 0–6 kHz
  double hidden_voice_high_hz = 6000.0;
  double hidden_voice_syllable_hz = 5.0;  ///< speech-like envelope rate
};

/// Generates attack waveforms against a victim speaker.
class AttackGenerator {
 public:
  explicit AttackGenerator(AttackGeneratorConfig config = {});

  /// Random attack: `adversary` speaks `command` live (no playback chain).
  AttackSound random_attack(const speech::VoiceCommand& command,
                            const speech::SpeakerProfile& adversary,
                            Rng& rng) const;

  /// Replay attack: a genuine utterance of `victim` replayed through the
  /// playback loudspeaker.
  AttackSound replay_attack(const speech::VoiceCommand& command,
                            const speech::SpeakerProfile& victim,
                            Rng& rng) const;

  /// Voice-synthesis attack: the command spoken by a few-shot clone of
  /// `victim`, played through the loudspeaker.
  AttackSound synthesis_attack(const speech::VoiceCommand& command,
                               const speech::SpeakerProfile& victim,
                               Rng& rng) const;

  /// Typical command length: the hidden voice attack's default duration.
  static constexpr double kCommandDurationS = 1.2;

  /// Hidden voice attack: obfuscated wideband command with a syllabic
  /// envelope, played through the loudspeaker.
  AttackSound hidden_voice_attack(const std::string& command_text,
                                  Rng& rng,
                                  double duration_s = kCommandDurationS) const;

  /// Dispatches on `type`; for kRandom, `adversary` is used, otherwise the
  /// victim profile.
  AttackSound generate(AttackType type, const speech::VoiceCommand& command,
                       const speech::SpeakerProfile& victim,
                       const speech::SpeakerProfile& adversary,
                       Rng& rng) const;

  /// The random half of generate(): same arguments, same Rng use.
  AttackDraw draw(AttackType type, const speech::VoiceCommand& command,
                  const speech::SpeakerProfile& victim,
                  const speech::SpeakerProfile& adversary, Rng& rng) const;

  /// The pure half: generate() == realize(draw(...)), bit for bit.
  AttackSound realize(const AttackDraw& draw) const;

 private:
  AttackDraw draw_speech(AttackType type, const speech::VoiceCommand& command,
                         const speech::SpeakerProfile& speaker,
                         Rng& rng) const;
  AttackDraw draw_hidden_voice(const std::string& command_text, Rng& rng,
                               double duration_s) const;
  AttackSound realize_hidden_voice(const AttackDraw& draw) const;

  AttackGeneratorConfig config_;
  speech::UtteranceBuilder builder_;
  sensors::Speaker playback_;
};

}  // namespace vibguard::attacks
