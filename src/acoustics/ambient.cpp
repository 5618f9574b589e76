#include "acoustics/ambient.hpp"

#include <cmath>
#include <numbers>

#include "common/db.hpp"
#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"

namespace vibguard::acoustics {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

Signal speech_shaped_noise(double duration_s, double fs, Rng& rng) {
  // Long-term-average speech spectrum approximation: flat 100-500 Hz,
  // -9 dB/octave above.
  Signal noise = dsp::white_noise(duration_s, fs, 1.0, rng);
  return dsp::apply_gain_curve(noise, [](double f) {
    if (f < 100.0) return f / 100.0;
    if (f < 500.0) return 1.0;
    return std::pow(500.0 / f, 1.5);
  });
}

}  // namespace

std::string ambient_name(AmbientKind kind) {
  switch (kind) {
    case AmbientKind::kQuiet: return "quiet";
    case AmbientKind::kHvac: return "hvac";
    case AmbientKind::kMusic: return "music";
    case AmbientKind::kBabble: return "babble";
  }
  throw InvalidArgument("unknown ambient kind");
}

std::vector<AmbientKind> all_ambient_kinds() {
  return {AmbientKind::kQuiet, AmbientKind::kHvac, AmbientKind::kMusic,
          AmbientKind::kBabble};
}

Signal ambient_noise(AmbientKind kind, double duration_s,
                     double sample_rate, double spl_db, Rng& rng) {
  return realize_ambient(
      draw_ambient(kind, duration_s, sample_rate, spl_db, rng));
}

AmbientDraw draw_ambient(AmbientKind kind, double duration_s,
                         double sample_rate, double spl_db, Rng& rng) {
  VIBGUARD_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  VIBGUARD_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  AmbientDraw d;
  d.kind = kind;
  d.duration_s = duration_s;
  d.sample_rate = sample_rate;
  d.spl_db = spl_db;
  const auto n =
      static_cast<std::size_t>(std::round(duration_s * sample_rate));
  switch (kind) {
    case AmbientKind::kQuiet:
      d.noise = rng.take_gaussians(n + dsp::kPinkNoiseRows);
      break;
    case AmbientKind::kHvac:
      d.noise = rng.take_gaussians(n);
      break;
    case AmbientKind::kMusic: {
      VIBGUARD_REQUIRE(sample_rate >= 2.0,
                       "music needs a sample rate of at least 2 Hz");
      d.noise = rng.take_gaussians(n + dsp::kPinkNoiseRows);
      d.beat_hz = rng.uniform(1.6, 2.4);
      rng.uniform(200.0, 600.0);  // an opening tone the first note replaces
      const auto note = static_cast<std::size_t>(sample_rate / 2);
      for (std::size_t i = 0; i < n; i += note) {
        d.notes.push_back(rng.uniform(200.0, 600.0));
      }
      break;
    }
    case AmbientKind::kBabble:
      for (int talker = 0; talker < 4; ++talker) {
        Rng noise = rng.take_gaussians(n);
        const double rate = rng.uniform(3.0, 6.0);
        const double phase = rng.uniform(0.0, kTwoPi);
        d.talkers.push_back({noise, rate, phase});
      }
      break;
  }
  return d;
}

Signal realize_ambient(const AmbientDraw& d) {
  const double sample_rate = d.sample_rate;
  Rng rng = d.noise;
  Signal out({}, sample_rate);
  switch (d.kind) {
    case AmbientKind::kQuiet:
      out = dsp::pink_noise(d.duration_s, sample_rate, 1.0, rng);
      break;
    case AmbientKind::kHvac: {
      // Rumble: noise low-passed hard at ~150 Hz plus a faint mains-ish hum.
      Signal noise = dsp::white_noise(d.duration_s, sample_rate, 1.0, rng);
      out = dsp::apply_gain_curve(noise, [](double f) {
        return 1.0 / (1.0 + std::pow(f / 150.0, 4.0));
      });
      const double hum_f = 120.0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] += 0.3 * std::sin(kTwoPi * hum_f *
                                 static_cast<double>(i) / sample_rate);
      }
      break;
    }
    case AmbientKind::kMusic: {
      // Broadband with a beat: pink noise amplitude-modulated at ~2 Hz and
      // a wandering melodic tone.
      out = dsp::pink_noise(d.duration_s, sample_rate, 1.0, rng);
      const auto note = static_cast<std::size_t>(sample_rate / 2);
      double tone_f = 0.0;
      double phase = 0.0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double t = static_cast<double>(i) / sample_rate;
        const double env = 0.6 + 0.4 * std::sin(kTwoPi * d.beat_hz * t);
        if (i % note == 0) tone_f = d.notes[i / note];  // new "note"
        phase += kTwoPi * tone_f / sample_rate;
        out[i] = env * (out[i] + 0.4 * std::sin(phase));
      }
      break;
    }
    case AmbientKind::kBabble: {
      // Several overlapping speech-shaped streams with syllabic envelopes.
      out = Signal::zeros(
          static_cast<std::size_t>(std::round(d.duration_s * sample_rate)),
          sample_rate);
      for (const AmbientDraw::Talker& talker : d.talkers) {
        Rng noise = talker.noise;
        Signal stream = speech_shaped_noise(d.duration_s, sample_rate, noise);
        for (std::size_t i = 0; i < stream.size() && i < out.size(); ++i) {
          const double t = static_cast<double>(i) / sample_rate;
          const double env =
              0.5 + 0.5 * std::sin(kTwoPi * talker.rate_hz * t + talker.phase);
          out[i] += env * stream[i];
        }
      }
      break;
    }
  }
  return out.scaled_to_rms(spl_to_rms(d.spl_db));
}

}  // namespace vibguard::acoustics
