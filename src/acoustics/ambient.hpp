// Ambient noise environments beyond the default pink floor.
//
// Rooms are rarely quiet: HVAC rumble, background music and multi-talker
// babble all occupy different bands and interact differently with the
// defense (babble contains real speech energy at the phoneme frequencies;
// HVAC is low-frequency like the attacks themselves). These generators
// drive the noise-robustness study.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/signal.hpp"

namespace vibguard::acoustics {

enum class AmbientKind {
  kQuiet,   ///< pink floor only (the Room default)
  kHvac,    ///< air-conditioning rumble: strong below ~150 Hz
  kMusic,   ///< broadband with rhythmic amplitude structure
  kBabble,  ///< overlapping distant conversations (speech-shaped)
};

/// Human-readable name.
std::string ambient_name(AmbientKind kind);

/// All ambient kinds, quietest character first.
std::vector<AmbientKind> all_ambient_kinds();

/// Generates `duration_s` of ambient noise at the given SPL. Throws
/// InvalidArgument for a negative duration, a non-positive sample rate, or
/// music below 2 Hz (its notes change every half second of samples).
Signal ambient_noise(AmbientKind kind, double duration_s,
                     double sample_rate, double spl_db, Rng& rng);

/// Everything one ambient_noise() call draws, in its draw order.
struct AmbientDraw {
  /// One babble talker: reserved noise and its syllabic envelope.
  struct Talker {
    Rng noise;
    double rate_hz;
    double phase;
  };
  AmbientKind kind = AmbientKind::kQuiet;
  double duration_s = 0.0;
  double sample_rate = 0.0;
  double spl_db = 0.0;
  Rng noise{0};                 ///< reserved noise (all kinds but babble)
  double beat_hz = 0.0;         ///< music
  std::vector<double> notes;    ///< music: each half-second note's tone
  std::vector<Talker> talkers;  ///< babble
};

/// The random half of ambient_noise(): same arguments, same Rng use.
AmbientDraw draw_ambient(AmbientKind kind, double duration_s,
                         double sample_rate, double spl_db, Rng& rng);

/// The pure half: ambient_noise() == realize_ambient(draw_ambient(...)).
Signal realize_ambient(const AmbientDraw& draw);

}  // namespace vibguard::acoustics
