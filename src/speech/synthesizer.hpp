// Formant-based source–filter phoneme synthesizer.
//
// Stands in for TIMIT recordings: voiced sounds are additive harmonic series
// shaped by glottal spectral tilt and formant resonances; unvoiced sounds are
// band-shaped noise; plosives are closure + burst; affricates are burst +
// frication. The synthesizer reproduces the property the defense depends on:
// each phoneme's characteristic distribution of energy across frequency.
//
// Rendering splits into a draw and a realize half. draw() consumes the Rng
// exactly as synthesize() always has and records every value it drew,
// reserving bulk noise with Rng::take_gaussians; realize() is pure DSP on
// that record, so many phonemes can be realized concurrently.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "speech/phoneme.hpp"
#include "speech/speaker.hpp"

namespace vibguard::speech {

struct SynthesizerConfig {
  double sample_rate = 16000.0;  ///< paper's microphone rate
  double max_harmonic_hz = 7800.0;
  double edge_ramp_s = 0.010;    ///< onset/offset amplitude ramp
};

/// One voiced excitation (a phoneme's voicing or a stop's voice bar) as
/// drawn: the jittered F0, its drift, and the audible harmonics.
struct VoicedDraw {
  struct Harmonic {
    std::size_t k;  ///< harmonic number (frequency f0 * k)
    double amp_start;
    double amp_end;
    double phase;
  };
  /// Aspiration noise shaped by the excitation's formants.
  struct Breath {
    std::vector<Formant> formants;
    double formant_scale;
    double breathiness;
    Rng noise;  ///< reserved white noise
  };
  double duration_s = 0.0;
  double f0 = 0.0;
  double drift = 0.0;
  std::vector<Harmonic> harmonics;  ///< those with a drawn phase
  std::optional<Breath> breath;
};

/// Frication noise as drawn: its band (speaker-scaled) and reserved noise.
struct NoiseDraw {
  double duration_s = 0.0;
  FricationBand band{};
  Rng noise{0};
};

/// Everything one synthesize() call draws, in its draw order.
struct PhonemeDraw {
  bool burst = false;     ///< stop/affricate: closure, then a noise burst
  double closure_s = 0.0; ///< burst phonemes only
  double burst_s = 0.0;   ///< burst phonemes only
  std::optional<VoicedDraw> voiced;  ///< voicing, or a stop's voice bar
  std::optional<NoiseDraw> noise;    ///< frication
  double target_rms = 0.0;
  std::size_t samples = 0;  ///< length of the realized phoneme
};

/// Synthesizes phoneme sounds for a given speaker.
class Synthesizer {
 public:
  explicit Synthesizer(SynthesizerConfig config = {});

  const SynthesizerConfig& config() const { return config_; }

  /// Renders one phoneme at its typical duration (scaled by
  /// `duration_scale`) for `speaker`. Amplitude encodes the phoneme's
  /// relative intensity; callers rescale utterances to a target SPL.
  Signal synthesize(const Phoneme& phoneme, const SpeakerProfile& speaker,
                    Rng& rng, double duration_scale = 1.0) const;

  /// The random half of synthesize(): same arguments, same Rng use.
  /// Throws InvalidArgument for a speaker whose F0 is not positive and
  /// finite.
  PhonemeDraw draw(const Phoneme& phoneme, const SpeakerProfile& speaker,
                   Rng& rng, double duration_scale = 1.0) const;

  /// The pure half: synthesize() == realize(draw(...)), bit for bit.
  Signal realize(const PhonemeDraw& draw) const;

  /// Renders a phoneme sequence with short coarticulation cross-fades.
  Signal synthesize_sequence(std::span<const Phoneme> phonemes,
                             const SpeakerProfile& speaker, Rng& rng) const;

  /// Magnitude gain of the cascaded formant resonators at frequency f for a
  /// given speaker (exposed for tests and analysis tools).
  static double formant_gain(const Phoneme& phoneme,
                             const SpeakerProfile& speaker, double f_hz);

 private:
  VoicedDraw draw_voiced(const Phoneme& phoneme,
                         const SpeakerProfile& speaker, double duration_s,
                         Rng& rng) const;
  NoiseDraw draw_noise(const Phoneme& phoneme, double duration_s,
                       const SpeakerProfile& speaker, Rng& rng) const;
  Signal voiced_component(const VoicedDraw& draw) const;
  Signal noise_component(const NoiseDraw& draw) const;
  std::size_t samples_for(double duration_s) const;
  void apply_edge_ramp(Signal& s) const;

  SynthesizerConfig config_;
};

}  // namespace vibguard::speech
