// Physical scenario simulation: renders legitimate-user and thru-barrier
// attack trials into paired (VA, wearable) recordings, replacing the paper's
// four instrumented rooms (Sec. VII-A).
//
// Rendering a trial splits into a draw half, which consumes the simulator's
// Rng streams in the one-call order and records every value drawn, and a
// pure realize half. render_trials uses the split to realize a whole
// population concurrently while drawing it serially, so its recordings are
// bit-identical to one-call rendering at every thread count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "acoustics/barrier.hpp"
#include "acoustics/room.hpp"
#include "attacks/attack.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "common/thread_pool.hpp"
#include "device/sync.hpp"
#include "device/wearable.hpp"
#include "sensors/microphone.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace vibguard::eval {

struct ScenarioConfig {
  acoustics::RoomConfig room = acoustics::room_a();
  double barrier_thickness = 1.0;

  // Geometry (paper Fig. 8 and Sec. VII-D defaults).
  double attacker_to_barrier_m = 0.1;  ///< loudspeaker 10 cm from barrier
  double barrier_to_va_m = 2.0;        ///< VA 2 m behind the barrier
  double barrier_to_wearable_m = 2.0;  ///< wearable 2 m behind the barrier
  double user_to_va_m = 2.0;           ///< user's speaking distance to VA
  double user_to_wearable_m = 0.4;     ///< mouth-to-wrist distance

  // Levels.
  double user_spl_min = 65.0;  ///< users speak at 65–75 dB
  double user_spl_max = 75.0;
  double attack_spl = 75.0;

  device::WearableConfig wearable = device::fossil_gen5();
  sensors::MicrophoneConfig va_microphone;
  device::SyncConfig sync;
};

/// The paired recordings of one trial plus its ground truth.
struct TrialRecordings {
  Signal va;        ///< VA device recording (16 kHz)
  Signal wearable;  ///< wearable recording, network-delayed (16 kHz)
  std::vector<speech::PhonemeSpan> alignment;  ///< source-timeline phonemes
  bool is_attack = false;
  attacks::AttackType attack_type = attacks::AttackType::kRandom;
  std::string command;
  double true_delay_s = 0.0;  ///< injected network delay
};

/// Everything one legitimate_trial() or attack_trial() call draws from the
/// simulator's streams, in their draw order.
struct TrialDraw {
  std::optional<speech::UtteranceDraw> utterance;  ///< legitimate speech
  double spl = 0.0;                                ///< its speaking level
  std::optional<attacks::AttackDraw> attack;       ///< or an attack
  acoustics::Room::RenderDraw at_va;
  acoustics::Room::RenderDraw at_wearable;
  Rng va_noise{0};        ///< VA microphone self-noise
  Rng wearable_noise{0};  ///< wearable microphone self-noise
  double delay_s = 0.0;   ///< network notification delay
};

/// Simulates trials for one room/geometry configuration.
class ScenarioSimulator {
 public:
  ScenarioSimulator(ScenarioConfig config, std::uint64_t seed);

  const ScenarioConfig& config() const { return config_; }

  /// Legitimate user speaks `command` inside the room.
  TrialRecordings legitimate_trial(const speech::VoiceCommand& command,
                                   const speech::SpeakerProfile& user);

  /// Adversary launches `type` against `victim` through the room's barrier.
  TrialRecordings attack_trial(attacks::AttackType type,
                               const speech::VoiceCommand& command,
                               const speech::SpeakerProfile& victim,
                               const speech::SpeakerProfile& adversary);

  /// The random halves of legitimate_trial() and attack_trial(): same
  /// arguments, same use of the simulator's Rng streams.
  TrialDraw draw_legitimate(const speech::VoiceCommand& command,
                            const speech::SpeakerProfile& user);
  TrialDraw draw_attack(attacks::AttackType type,
                        const speech::VoiceCommand& command,
                        const speech::SpeakerProfile& victim,
                        const speech::SpeakerProfile& adversary);

  /// The pure half: legitimate_trial() == realize(draw_legitimate(...))
  /// and attack_trial() == realize(draw_attack(...)), bit for bit. Safe to
  /// call concurrently.
  TrialRecordings realize(const TrialDraw& draw) const;

  /// The sound arriving at the VA device for an arbitrary attack waveform
  /// (used by the Table I attack study).
  Signal attack_sound_at_va(const Signal& attack_audio, double attack_spl);

  Rng& rng() { return rng_; }

 private:
  /// Draws the rest of a trial whose source has `samples` samples at
  /// `sample_rate`: both room renders, both recordings, the delay.
  void draw_pair(std::size_t samples, double sample_rate, double to_va_m,
                 double to_wearable_m, TrialDraw& draw);

  /// Renders `source` at both device positions and packages recordings.
  TrialRecordings record_pair(const Signal& source,
                              const TrialDraw& draw) const;

  ScenarioConfig config_;
  Rng rng_;
  acoustics::Barrier barrier_;
  acoustics::Room room_;
  device::Wearable wearable_;
  sensors::Microphone va_mic_;
  device::SyncChannel sync_;
  attacks::AttackGenerator attack_gen_;
  speech::UtteranceBuilder builder_;
};

/// Renders the standard trial population on `sim`: `legit` legitimate
/// commands, the `speakers` taking turns through the command lexicon, then
/// `attacks` attacks of `type`, each speaker in turn the victim and the
/// next one the adversary. Recordings equal those of legitimate_trial and
/// attack_trial called in that order, bit for bit: every trial is drawn
/// serially, then all are realized on `pool`.
std::vector<TrialRecordings> render_trials(
    ScenarioSimulator& sim, const std::vector<speech::SpeakerProfile>& speakers,
    std::size_t legit, std::size_t attacks, attacks::AttackType type,
    ThreadPool& pool);

}  // namespace vibguard::eval
