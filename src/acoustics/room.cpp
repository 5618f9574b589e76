#include "acoustics/room.hpp"

#include <cmath>

#include "common/db.hpp"
#include "common/error.hpp"
#include "acoustics/ambient.hpp"
#include "acoustics/propagation.hpp"
#include "dsp/generate.hpp"

namespace vibguard::acoustics {

RoomConfig room_a() {
  return RoomConfig{"Room A", 7.0, 6.0, glass_window(),
                    /*reverb_strength=*/0.25, /*reverb_time_s=*/0.35,
                    /*ambient_noise_spl=*/43.0};
}

RoomConfig room_b() {
  return RoomConfig{"Room B", 7.0, 7.0, wooden_door(),
                    /*reverb_strength=*/0.28, /*reverb_time_s=*/0.40,
                    /*ambient_noise_spl=*/44.0};
}

RoomConfig room_c() {
  return RoomConfig{"Room C", 6.0, 4.0, wooden_door(),
                    /*reverb_strength=*/0.22, /*reverb_time_s=*/0.28,
                    /*ambient_noise_spl=*/45.0};
}

RoomConfig room_d() {
  return RoomConfig{"Room D", 5.0, 3.0, glass_wall(),
                    /*reverb_strength=*/0.20, /*reverb_time_s=*/0.22,
                    /*ambient_noise_spl=*/44.5};
}

RoomConfig room_by_name(const std::string& name) {
  if (name == "Room A" || name == "A") return room_a();
  if (name == "Room B" || name == "B") return room_b();
  if (name == "Room C" || name == "C") return room_c();
  if (name == "Room D" || name == "D") return room_d();
  throw InvalidArgument("unknown room: " + name);
}

std::vector<RoomConfig> all_rooms() {
  return {room_a(), room_b(), room_c(), room_d()};
}

Room::Room(RoomConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  // Sparse image-source-style early reflections. Delays scale with the room
  // dimensions (path differences of one to three wall bounces at 343 m/s);
  // gains decay exponentially with the room's reverberation time constant.
  const double c = 343.0;
  const double mean_dim = 0.5 * (config_.length_m + config_.width_m);
  const std::size_t count = 6;
  reflections_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double bounce = 1.0 + static_cast<double>(i) * 0.5;
    const double path = mean_dim * bounce * rng_.uniform(0.8, 1.2);
    const double delay = path / c;
    const double gain = config_.reverb_strength *
                        std::exp(-delay / config_.reverb_time_s) /
                        (1.0 + static_cast<double>(i));
    reflections_.push_back({delay, gain});
  }
}

Signal Room::render(const Signal& source, double distance_m) {
  return realize(source,
                 draw(source.size(), source.sample_rate(), distance_m));
}

Room::RenderDraw Room::draw(std::size_t samples, double sample_rate,
                            double distance_m) {
  RenderDraw d;
  d.distance_m = distance_m;
  // Each receiver position sees its own image-source pattern: jitter the
  // room's base reflections per render so two devices at different spots
  // get genuinely different colorations.
  d.reflections.reserve(reflections_.size());
  for (const Reflection& r : reflections_) {
    const double delay = r.delay_s * rng_.uniform(0.92, 1.08);
    const double gain = r.gain * rng_.uniform(0.85, 1.15);
    d.reflections.push_back({delay, gain});
  }
  // The noise spans the rendered signal, which keeps the source's length
  // and rate (Signal::duration).
  const double duration_s =
      sample_rate > 0.0 ? static_cast<double>(samples) / sample_rate : 0.0;
  d.ambient = draw_ambient(config_.ambient_kind, duration_s, sample_rate,
                           config_.ambient_noise_spl, rng_);
  return d;
}

Signal Room::realize(const Signal& source, const RenderDraw& d) const {
  Signal direct = propagate(source, d.distance_m);
  Signal out = direct;
  const double fs = source.sample_rate();
  for (const Reflection& r : d.reflections) {
    const auto shift = static_cast<std::size_t>(std::round(r.delay_s * fs));
    for (std::size_t i = shift; i < out.size(); ++i) {
      out[i] += r.gain * direct[i - shift];
    }
  }
  Signal noise = realize_ambient(d.ambient);
  for (std::size_t i = 0; i < out.size() && i < noise.size(); ++i) {
    out[i] += noise[i];
  }
  return out;
}

Signal Room::ambient(double duration_s, double sample_rate) {
  return ambient_noise(config_.ambient_kind, duration_s, sample_rate,
                       config_.ambient_noise_spl, rng_);
}

}  // namespace vibguard::acoustics
