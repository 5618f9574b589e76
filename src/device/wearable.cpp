#include "device/wearable.hpp"

#include <utility>

namespace vibguard::device {

WearableConfig fossil_gen5() {
  WearableConfig cfg;
  cfg.name = "Fossil Gen 5";
  cfg.microphone = sensors::MicrophoneConfig{};
  cfg.speaker = sensors::wearable_speaker();
  cfg.accelerometer = sensors::AccelerometerConfig{};
  return cfg;
}

WearableConfig moto360() {
  WearableConfig cfg;
  cfg.name = "Moto 360 (2020)";
  cfg.microphone = sensors::MicrophoneConfig{};
  cfg.speaker = sensors::wearable_speaker();
  cfg.speaker.low_cut_hz = 420.0;  // smaller driver
  cfg.accelerometer = sensors::AccelerometerConfig{};
  cfg.accelerometer.base_noise_rms = 0.002;
  cfg.accelerometer.lf_noise_coeff = 0.40;
  return cfg;
}

Wearable::Wearable(WearableConfig config)
    : config_(std::move(config)),
      mic_(config_.microphone),
      speaker_(config_.speaker),
      accel_(config_.accelerometer) {}

Signal Wearable::record(const Signal& sound, Rng& rng) const {
  return mic_.record(sound, rng);
}

Signal Wearable::cross_domain_capture(const Signal& recording,
                                      Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  realize_capture(recording, draw_capture(recording, rng), out, scratch);
  return out;
}

sensors::CaptureDraw Wearable::draw_capture(
    const Signal& recording, Rng& rng,
    std::optional<sensors::Activity> activity) const {
  if (!activity.has_value()) {
    return accel_.draw(recording.size(), recording.sample_rate(), rng);
  }
  Signal motion = sensors::body_motion(*activity, recording.duration() + 0.1,
                                       accel_.config().sample_rate, rng);
  return accel_.draw_with_motion(recording.size(), recording.sample_rate(),
                                 std::move(motion), rng);
}

void Wearable::realize_capture(const Signal& recording,
                               const sensors::CaptureDraw& draw, Signal& out,
                               dsp::Scratch& scratch) const {
  speaker_.render_into(recording, scratch.rendered, scratch.cwork);
  accel_.realize(scratch.rendered, draw, out, scratch);
}

}  // namespace vibguard::device
