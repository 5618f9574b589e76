// Wearable device: microphone recording plus the cross-domain sensing
// pipeline (built-in speaker replay captured by the built-in accelerometer).
//
// Presets model the paper's two smartwatches (Fossil Gen 5, Moto 360 2020).
#pragma once

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "sensors/accelerometer.hpp"
#include "sensors/body_motion.hpp"
#include "sensors/microphone.hpp"
#include "sensors/speaker.hpp"

namespace vibguard::device {

struct WearableConfig {
  std::string name;
  sensors::MicrophoneConfig microphone;
  sensors::SpeakerConfig speaker;
  sensors::AccelerometerConfig accelerometer;
};

/// Fossil Gen 5 smartwatch (paper's primary device).
WearableConfig fossil_gen5();

/// Moto 360 (2020) smartwatch: slightly noisier accelerometer, weaker
/// speaker low end.
WearableConfig moto360();

/// A wearable with a microphone, a small speaker and an accelerometer.
class Wearable {
 public:
  explicit Wearable(WearableConfig config = fossil_gen5());

  const WearableConfig& config() const { return config_; }

  /// Records ambient sound with the built-in microphone (16 kHz).
  Signal record(const Signal& sound, Rng& rng) const;

  /// Cross-domain sensing: replays `recording` through the built-in speaker
  /// and captures the induced vibration with the accelerometer (200 Hz).
  /// This is the audio→vibration conversion of Sec. IV-A.
  Signal cross_domain_capture(const Signal& recording, Rng& rng) const;

  /// The random half of cross_domain_capture() (DESIGN.md §5j): when the
  /// wearer performs `activity`, renders its motion interference, which
  /// replaces the config's built-in stand-in (see sensors::body_motion);
  /// then draws the accelerometer's capture of the replayed `recording`
  /// (the speaker keeps its length and rate). Reads only the recording's
  /// length and rate.
  sensors::CaptureDraw draw_capture(
      const Signal& recording, Rng& rng,
      std::optional<sensors::Activity> activity = std::nullopt) const;

  /// The pure half: cross_domain_capture(recording, rng) is
  /// realize_capture(recording, draw_capture(recording, rng), out,
  /// scratch), bit for bit. Calls with their own `out` and `scratch` may
  /// run at once.
  void realize_capture(const Signal& recording,
                       const sensors::CaptureDraw& draw, Signal& out,
                       dsp::Scratch& scratch) const;

  const sensors::Accelerometer& accelerometer() const { return accel_; }
  const sensors::Speaker& speaker() const { return speaker_; }
  const sensors::Microphone& microphone() const { return mic_; }

 private:
  WearableConfig config_;
  sensors::Microphone mic_;
  sensors::Speaker speaker_;
  sensors::Accelerometer accel_;
};

}  // namespace vibguard::device
