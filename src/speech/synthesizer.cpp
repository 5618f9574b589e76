#include "speech/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/db.hpp"
#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"

namespace vibguard::speech {
namespace {

/// Glottal source spectral envelope: flat to ~200 Hz, then -6 dB/octave
/// (glottal -12 dB/oct plus +6 dB/oct lip radiation).
double source_tilt(double f_hz) {
  constexpr double kCorner = 200.0;
  if (f_hz <= kCorner) return 1.0;
  return kCorner / f_hz;
}

/// Second-order resonance magnitude, unity at DC, peaking near F.
double resonance_gain(double f_hz, const Formant& fm) {
  const double f2 = f_hz * f_hz;
  const double cf2 = fm.frequency_hz * fm.frequency_hz;
  const double num = cf2;
  const double den = std::sqrt((cf2 - f2) * (cf2 - f2) +
                               fm.bandwidth_hz * fm.bandwidth_hz * f2);
  return num / std::max(den, 1e-9);
}

/// Smooth band-pass gain for frication noise (fourth-order edges).
double band_gain(double f_hz, const FricationBand& band) {
  const double lo = band.low_hz;
  const double hi = band.high_hz;
  const double g_lo = 1.0 / (1.0 + std::pow(lo / std::max(f_hz, 1.0), 4.0));
  const double g_hi = 1.0 / (1.0 + std::pow(f_hz / hi, 4.0));
  return g_lo * g_hi;
}

}  // namespace

Synthesizer::Synthesizer(SynthesizerConfig config) : config_(config) {
  VIBGUARD_REQUIRE(config_.sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(config_.max_harmonic_hz < config_.sample_rate / 2.0,
                   "harmonic ceiling must be below Nyquist");
}

namespace {

double formant_set_gain(const std::vector<Formant>& formants,
                        double formant_scale, double f_hz) {
  double g = 1.0;
  for (const Formant& fm : formants) {
    Formant scaled = fm;
    scaled.frequency_hz *= formant_scale;
    g *= resonance_gain(f_hz, scaled);
  }
  return g;
}

}  // namespace

double Synthesizer::formant_gain(const Phoneme& phoneme,
                                 const SpeakerProfile& speaker, double f_hz) {
  return formant_set_gain(phoneme.formants, speaker.formant_scale, f_hz);
}

std::size_t Synthesizer::samples_for(double duration_s) const {
  return static_cast<std::size_t>(
      std::round(duration_s * config_.sample_rate));
}

VoicedDraw Synthesizer::draw_voiced(const Phoneme& phoneme,
                                    const SpeakerProfile& speaker,
                                    double duration_s, Rng& rng) const {
  VoicedDraw v;
  v.duration_s = duration_s;
  v.f0 = speaker.f0_hz * (1.0 + rng.gaussian(0.0, 0.03));
  const auto harmonics =
      static_cast<std::size_t>(config_.max_harmonic_hz / v.f0);

  // Slow F0 drift across the phoneme (declination + jitter).
  v.drift = rng.gaussian(0.0, speaker.f0_jitter * 2.0);

  // Diphthongs glide from `formants` to `end_formants`; static phonemes
  // keep a constant per-harmonic amplitude. A harmonic inaudible at both
  // ends draws no phase, so the amplitudes are part of the draw.
  const bool glide = !phoneme.end_formants.empty();
  v.harmonics.reserve(harmonics);
  for (std::size_t k = 1; k <= harmonics; ++k) {
    const double fk = v.f0 * static_cast<double>(k);
    const double shimmer = 1.0 + rng.gaussian(0.0, speaker.shimmer);
    const double amp_start =
        source_tilt(fk) * formant_gain(phoneme, speaker, fk) * shimmer;
    const double amp_end =
        glide ? source_tilt(fk) *
                    formant_set_gain(phoneme.end_formants,
                                     speaker.formant_scale, fk) *
                    shimmer
              : amp_start;
    if (std::abs(amp_start) < 1e-6 && std::abs(amp_end) < 1e-6) continue;
    v.harmonics.push_back(
        {k, amp_start, amp_end, rng.uniform(0.0, 2.0 * std::numbers::pi)});
  }

  // Breathiness: aspiration noise shaped by the same formants.
  if (speaker.breathiness > 0.0 && !phoneme.formants.empty()) {
    v.breath = VoicedDraw::Breath{
        phoneme.formants, speaker.formant_scale, speaker.breathiness,
        rng.take_gaussians(samples_for(duration_s))};
  }
  return v;
}

Signal Synthesizer::voiced_component(const VoicedDraw& v) const {
  const double fs = config_.sample_rate;
  const std::size_t n = samples_for(v.duration_s);
  std::vector<double> out(n, 0.0);
  for (const VoicedDraw::Harmonic& h : v.harmonics) {
    const double fk = v.f0 * static_cast<double>(h.k);
    const double w = 2.0 * std::numbers::pi * fk / fs;
    const double dw =
        w * v.drift / static_cast<double>(std::max<std::size_t>(n, 1));
    const double amp_step =
        n > 1 ? (h.amp_end - h.amp_start) / static_cast<double>(n - 1)
              : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i);
      out[i] += (h.amp_start + amp_step * t) *
                std::sin((w + dw * t * 0.5) * t + h.phase);
    }
  }
  Signal sig(std::move(out), fs);

  if (v.breath) {
    const VoicedDraw::Breath& b = *v.breath;
    Rng rng = b.noise;
    Signal breath = dsp::white_noise(v.duration_s, fs, 1.0, rng);
    breath = dsp::apply_gain_curve(breath, [&b](double f) {
      return source_tilt(f) * formant_set_gain(b.formants, b.formant_scale, f);
    });
    const double target = sig.rms() * b.breathiness;
    breath = breath.scaled_to_rms(target);
    if (breath.size() == sig.size()) sig.add(breath);
  }
  return sig;
}

NoiseDraw Synthesizer::draw_noise(const Phoneme& phoneme, double duration_s,
                                  const SpeakerProfile& speaker,
                                  Rng& rng) const {
  FricationBand band = *phoneme.frication;
  band.low_hz *= speaker.formant_scale;
  band.high_hz = std::min(band.high_hz * speaker.formant_scale,
                          config_.max_harmonic_hz);
  return {duration_s, band, rng.take_gaussians(samples_for(duration_s))};
}

Signal Synthesizer::noise_component(const NoiseDraw& d) const {
  Rng rng = d.noise;
  Signal noise =
      dsp::white_noise(d.duration_s, config_.sample_rate, 1.0, rng);
  return dsp::apply_gain_curve(
      noise, [&d](double f) { return band_gain(f, d.band); });
}

void Synthesizer::apply_edge_ramp(Signal& s) const {
  const auto ramp = std::min<std::size_t>(
      static_cast<std::size_t>(config_.edge_ramp_s * s.sample_rate()),
      s.size() / 2);
  for (std::size_t i = 0; i < ramp; ++i) {
    const double g = static_cast<double>(i) / static_cast<double>(ramp);
    s[i] *= g;
    s[s.size() - 1 - i] *= g;
  }
}

Signal Synthesizer::synthesize(const Phoneme& phoneme,
                               const SpeakerProfile& speaker, Rng& rng,
                               double duration_scale) const {
  return realize(draw(phoneme, speaker, rng, duration_scale));
}

PhonemeDraw Synthesizer::draw(const Phoneme& phoneme,
                              const SpeakerProfile& speaker, Rng& rng,
                              double duration_scale) const {
  VIBGUARD_REQUIRE(duration_scale > 0.0, "duration scale must be positive");
  VIBGUARD_REQUIRE(speaker.f0_hz > 0.0 && std::isfinite(speaker.f0_hz),
                   "speaker F0 must be positive and finite");
  PhonemeDraw d;
  const double dur =
      phoneme.duration_s * duration_scale * rng.uniform(0.85, 1.15);
  const bool voiced = phoneme.voiced && !phoneme.formants.empty();
  switch (phoneme.cls) {
    case PhonemeClass::kPlosive:
    case PhonemeClass::kAffricate: {
      // Closure silence, then a noise burst; voiced stops add a low
      // "voice bar" during closure; affricates extend the frication.
      d.burst = true;
      d.closure_s = 0.4 * dur;
      d.burst_s =
          phoneme.cls == PhonemeClass::kAffricate ? 0.6 * dur : 0.35 * dur;
      if (voiced) {
        // Voice bar: weak low-frequency periodicity during closure.
        Phoneme bar = phoneme;
        bar.formants = {{250.0, 80.0}};
        d.voiced = draw_voiced(bar, speaker, d.closure_s, rng);
      }
      if (phoneme.frication.has_value()) {
        d.noise = draw_noise(phoneme, d.burst_s, speaker, rng);
      }
      d.samples = samples_for(d.closure_s) + samples_for(d.burst_s);
      break;
    }
    default:
      if (voiced) d.voiced = draw_voiced(phoneme, speaker, dur, rng);
      if (phoneme.frication.has_value()) {
        d.noise = draw_noise(phoneme, dur, speaker, rng);
      }
      d.samples = d.voiced || d.noise ? samples_for(dur) : 0;
      break;
  }
  d.target_rms = kReferenceRms * db_to_amplitude(phoneme.intensity_db);
  return d;
}

Signal Synthesizer::realize(const PhonemeDraw& d) const {
  const double fs = config_.sample_rate;
  Signal out;
  if (d.burst) {
    Signal closure = Signal::zeros(samples_for(d.closure_s), fs);
    if (d.voiced) {
      Signal vb = voiced_component(*d.voiced);
      vb = vb.scaled_to_rms(0.15);
      if (vb.size() == closure.size()) closure.add(vb);
    }
    // A stop without frication bursts silence.
    Signal burst = d.noise ? noise_component(*d.noise)
                           : Signal::zeros(samples_for(d.burst_s), fs);
    apply_edge_ramp(burst);
    closure.append(burst);
    out = std::move(closure);
  } else {
    Signal voiced;
    if (d.voiced) voiced = voiced_component(*d.voiced);
    Signal noise;
    if (d.noise) noise = noise_component(*d.noise);
    if (!voiced.empty() && !noise.empty()) {
      // Voiced fricatives: frication rides on voicing at ~1:1 power.
      noise = noise.scaled_to_rms(voiced.rms());
      const std::size_t m = std::min(voiced.size(), noise.size());
      out = voiced.slice(0, m);
      Signal tail = noise.slice(0, m);
      out.add(tail);
    } else if (!voiced.empty()) {
      out = std::move(voiced);
    } else {
      out = std::move(noise);
    }
  }

  // Encode the phoneme's relative intensity into the waveform amplitude
  // (ramp first so the final RMS is exact).
  apply_edge_ramp(out);
  out = out.scaled_to_rms(d.target_rms);
  return out;
}

Signal Synthesizer::synthesize_sequence(std::span<const Phoneme> phonemes,
                                        const SpeakerProfile& speaker,
                                        Rng& rng) const {
  Signal out;
  const double fs = config_.sample_rate;
  for (const Phoneme& p : phonemes) {
    Signal seg = synthesize(p, speaker, rng);
    if (out.empty()) {
      out = std::move(seg);
      continue;
    }
    // Short cross-fade emulating coarticulation.
    const auto fade = std::min<std::size_t>(
        {static_cast<std::size_t>(0.005 * fs), out.size(), seg.size()});
    const std::size_t base = out.size() - fade;
    for (std::size_t i = 0; i < fade; ++i) {
      const double g = static_cast<double>(i) / static_cast<double>(fade);
      out[base + i] = out[base + i] * (1.0 - g) + seg[i] * g;
    }
    out.append(seg.slice(fade, seg.size()));
  }
  return out;
}

}  // namespace vibguard::speech
