// Room environments: early reflections, reverberation tail and ambient
// noise. Presets reproduce the paper's four evaluation rooms (Sec. VII-A):
//   Room A — 7×6 m residential apartment, glass window
//   Room B — 7×7 m university office, wooden door
//   Room C — 6×4 m university office, glass wall + wooden door
//   Room D — 5×3 m university office, glass wall
#pragma once

#include <string>
#include <vector>

#include "acoustics/ambient.hpp"
#include "acoustics/barrier.hpp"
#include "acoustics/material.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"

namespace vibguard::acoustics {

/// Static description of a room used in the evaluation.
struct RoomConfig {
  std::string name;
  double length_m;
  double width_m;
  Material barrier_material;
  double reverb_strength;   ///< overall early-reflection gain (0..1)
  double reverb_time_s;     ///< decay time constant of the reflection train
  double ambient_noise_spl; ///< background noise level in dB SPL
  /// Character of the background noise (quiet pink floor by default).
  AmbientKind ambient_kind = AmbientKind::kQuiet;
};

/// Paper room presets.
RoomConfig room_a();
RoomConfig room_b();
RoomConfig room_c();
RoomConfig room_d();
RoomConfig room_by_name(const std::string& name);
std::vector<RoomConfig> all_rooms();

/// Simulates in-room sound propagation: direct path + sparse early
/// reflections + ambient noise. Deterministic given the Rng.
class Room {
 public:
  struct Reflection {
    double delay_s;
    double gain;
  };

  /// Everything one render() call draws from the room's Rng: this
  /// receiver's jittered reflections, then its ambient noise.
  struct RenderDraw {
    double distance_m = 0.0;
    std::vector<Reflection> reflections;
    AmbientDraw ambient;
  };

  Room(RoomConfig config, Rng rng);

  const RoomConfig& config() const { return config_; }

  /// Renders `source` heard at `distance_m` inside the room: spreading loss,
  /// image-source-style early reflections and ambient noise.
  Signal render(const Signal& source, double distance_m);

  /// The random half of render() for a source of `samples` samples at
  /// `sample_rate`: consumes the room's Rng exactly as render() does.
  RenderDraw draw(std::size_t samples, double sample_rate,
                  double distance_m);

  /// The pure half: render() == realize(source, draw(...)), bit for bit.
  Signal realize(const Signal& source, const RenderDraw& draw) const;

  /// Ambient noise alone, for noise-floor calibration.
  Signal ambient(double duration_s, double sample_rate);

 private:
  RoomConfig config_;
  Rng rng_;
  std::vector<Reflection> reflections_;
};

}  // namespace vibguard::acoustics
