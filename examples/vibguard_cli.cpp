// vibguard_cli — command-line front end for the library.
//
//   vibguard_cli demo                      one legit + one attack detection
//   vibguard_cli selection [--segments N]  run offline phoneme selection
//   vibguard_cli experiment [--attack T] [--room R] [--trials N]
//                                          ROC/AUC/EER for all three arms
//   vibguard_cli attack-study              Table I style trigger study
//   vibguard_cli fault-sweep [--fault F] [--trials N]
//                                          EER-vs-fault-severity robustness
//   vibguard_cli load-sweep [--trials N] [--capacity N] [--deadline-ms N]
//                                          overload behavior vs offered load
//                                          (one worker, no batching)
//   vibguard_cli load-sweep --workers 1,2,4 [--batch N] [--batch-window-ms N]
//                                          sharded fleet scaling table
//   vibguard_cli stream-sweep [--attack T] [--room R] [--trials N]
//                                          early-exit fraction vs EER table
//   vibguard_cli export-audio [DIR]        write demo WAV files
//
// All subcommands are deterministic for a fixed --seed (default 42).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "acoustics/barrier.hpp"
#include "attacks/attack.hpp"
#include "common/error.hpp"
#include "common/wav.hpp"
#include "core/phoneme_selection.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "eval/confidence.hpp"
#include "eval/experiment.hpp"
#include "eval/fault_sweep.hpp"
#include "eval/load_sweep.hpp"
#include "eval/scenario.hpp"
#include "eval/stream_sweep.hpp"
#include "faults/fault.hpp"
#include "speech/corpus.hpp"

using namespace vibguard;

namespace {

struct Args {
  std::string command;
  std::string attack = "replay";
  std::string room = "A";
  std::string fault = "all";
  std::size_t trials = 20;
  std::size_t segments = 20;
  std::uint64_t seed = 42;
  std::size_t capacity = 8;
  std::uint64_t deadline_ms = 400;
  std::string workers;  ///< CSV worker grid; non-empty = sharded fleet sweep
  std::size_t batch = 4;
  std::uint64_t batch_window_ms = 20;
  std::string dir = "vibguard_audio";
};

/// Parses a numeric flag value, turning every malformed shape — empty,
/// non-numeric, trailing junk, negative, out of range — into an
/// InvalidArgument with the flag name, instead of the uncaught std::stoul
/// exceptions (or silent partial parses) that would otherwise crash the CLI.
std::uint64_t parse_number(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (text.empty() || pos != text.size() || text[0] == '-') {
    throw InvalidArgument(flag + " needs a non-negative integer, got '" +
                          text + "'");
  }
  return value;
}

/// Parses a millisecond flag the sweeps multiply into microseconds,
/// rejecting values whose product would wrap.
std::uint64_t parse_millis(const std::string& flag, const std::string& text) {
  const std::uint64_t ms = parse_number(flag, text);
  if (ms > UINT64_MAX / 1000) {
    throw InvalidArgument(flag + " is too large, got '" + text + "'");
  }
  return ms;
}

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto number = [&]() { return parse_number(flag, next()); };
    auto millis = [&]() { return parse_millis(flag, next()); };
    if (flag == "--attack") args.attack = next();
    else if (flag == "--fault") args.fault = next();
    else if (flag == "--room") args.room = next();
    else if (flag == "--trials") args.trials = number();
    else if (flag == "--segments") args.segments = number();
    else if (flag == "--seed") args.seed = number();
    else if (flag == "--capacity") args.capacity = number();
    else if (flag == "--deadline-ms") args.deadline_ms = millis();
    else if (flag == "--workers") args.workers = next();
    else if (flag == "--batch") args.batch = number();
    else if (flag == "--batch-window-ms") args.batch_window_ms = millis();
    else if (flag[0] != '-') args.dir = flag;
    else throw InvalidArgument("unknown flag: " + flag);
  }
  return args;
}

attacks::AttackType attack_by_name(const std::string& name) {
  for (auto t : attacks::all_attack_types()) {
    if (attacks::attack_name(t) == name) return t;
  }
  throw InvalidArgument("unknown attack: " + name +
                        " (random|replay|synthesis|hidden_voice)");
}

int cmd_demo(const Args& args) {
  eval::ScenarioConfig scfg;
  scfg.room = acoustics::room_by_name(args.room);
  eval::ScenarioSimulator sim(scfg, args.seed);
  Rng rng(args.seed + 1);
  const auto user = speech::sample_speaker(speech::Sex::kFemale, rng);
  const auto adversary = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto& cmd = speech::command_by_text("unlock the front door");
  core::DefenseSession guard{core::DefenseConfig{}};

  const auto legit = sim.legitimate_trial(cmd, user);
  core::OracleSegmenter seg_l(legit.alignment,
                              eval::reference_sensitive_set());
  Rng r1(args.seed + 2);
  const auto ok =
      guard.process("legitimate command", legit.va, legit.wearable, &seg_l, r1);
  std::printf("legitimate command: score %.3f -> %s\n", ok.score,
              ok.verdict == core::Verdict::kAccepted ? "accepted"
                                                     : "REJECTED (false alarm)");

  const auto attack = sim.attack_trial(attack_by_name(args.attack), cmd,
                                       user, adversary);
  core::OracleSegmenter seg_a(attack.alignment,
                              eval::reference_sensitive_set());
  Rng r2(args.seed + 3);
  const auto bad = guard.process(args.attack + " attack", attack.va,
                                 attack.wearable, &seg_a, r2);
  std::printf("%s attack: score %.3f -> %s\n", args.attack.c_str(), bad.score,
              bad.verdict == core::Verdict::kAttackDetected ? "ATTACK DETECTED"
                                                            : "missed");

  std::printf("\n%s", guard.pipeline_stats().summary().c_str());
  return ok.verdict == core::Verdict::kAccepted &&
                 bad.verdict == core::Verdict::kAttackDetected
             ? 0
             : 1;
}

int cmd_selection(const Args& args) {
  speech::CorpusConfig ccfg;
  ccfg.segments_per_phoneme = args.segments;
  speech::PhonemeCorpus corpus(ccfg, args.seed);
  core::PhonemeSelector selector(core::SelectionConfig{},
                                 device::Wearable{});
  acoustics::Barrier barrier(
      acoustics::room_by_name(args.room).barrier_material);
  Rng rng(args.seed + 7);
  const auto result = selector.select(corpus, barrier, rng);
  std::printf("selected %zu of %zu phonemes (alpha %.4g):\n",
              result.sensitive.size(), result.phonemes.size(), result.alpha);
  for (const auto& p : result.phonemes) {
    std::printf("  /%s/\tC1 %s\tC2 %s\t%s\n", p.symbol.c_str(),
                p.passes_criterion1 ? "pass" : "FAIL",
                p.passes_criterion2 ? "pass" : "FAIL",
                p.selected ? "selected" : "-");
  }
  return 0;
}

int cmd_experiment(const Args& args) {
  eval::ExperimentConfig cfg;
  cfg.scenario.room = acoustics::room_by_name(args.room);
  cfg.legit_trials = args.trials;
  cfg.attack_trials = args.trials;
  eval::ExperimentRunner runner(cfg, args.seed);
  const auto pops = runner.run(
      attack_by_name(args.attack),
      {core::DefenseMode::kAudioBaseline,
       core::DefenseMode::kVibrationBaseline, core::DefenseMode::kFull});
  std::printf("%s attack, %s, %zu+%zu trials:\n", args.attack.c_str(),
              cfg.scenario.room.name.c_str(), args.trials, args.trials);
  std::printf("%-24s %22s %8s\n", "method", "AUC [95% CI]", "EER");
  for (const auto& [mode, p] : pops) {
    const auto ci = eval::bootstrap_auc(p.attack, p.legit);
    std::printf("%-24s %8.3f [%.3f, %.3f] %8.3f\n", core::mode_name(mode),
                ci.point, ci.lower, ci.upper, p.roc().eer);
  }
  return 0;
}

int cmd_attack_study(const Args& args) {
  eval::ScenarioConfig scfg;
  scfg.room = acoustics::room_by_name(args.room);
  eval::ScenarioSimulator sim(scfg, args.seed);
  Rng rng(args.seed + 11);
  const auto victim = speech::sample_speaker(speech::Sex::kFemale, rng);
  attacks::AttackGenerator gen;
  std::printf("trigger probability at the VA (replayed wake word, %s):\n",
              scfg.room.barrier_material.name.c_str());
  std::printf("%-14s %8s %8s %8s\n", "device", "65 dB", "75 dB", "85 dB");
  for (const auto& profile : device::all_va_devices()) {
    device::VaDevice dev(profile);
    std::printf("%-14s", profile.name.c_str());
    for (double spl : {65.0, 75.0, 85.0}) {
      const auto wake = gen.replay_attack(
          speech::command_by_text(profile.wake_word), victim, rng);
      const Signal at_va = sim.attack_sound_at_va(wake.audio, spl);
      std::printf(" %8.2f", dev.trigger_probability(
                                at_va, device::CommandKind::kReplay, false));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_fault_sweep(const Args& args) {
  std::vector<faults::FaultKind> kinds;
  if (args.fault == "all") {
    kinds = faults::all_fault_kinds();
  } else {
    kinds.push_back(faults::fault_by_name(args.fault));
  }
  for (faults::FaultKind kind : kinds) {
    eval::FaultSweepConfig cfg;
    cfg.scenario.room = acoustics::room_by_name(args.room);
    cfg.attack = attack_by_name(args.attack);
    cfg.legit_trials = args.trials;
    cfg.attack_trials = args.trials;
    cfg.fault = kind;
    const auto result = eval::run_fault_sweep(cfg, args.seed);
    std::printf("%s", result.summary().c_str());
  }
  return 0;
}

/// Parses the --workers CSV ("1,2,4") into a worker-count grid, rejecting
/// empty elements and zeros with the same InvalidArgument shape as the
/// numeric flags.
std::vector<std::size_t> parse_workers(const std::string& csv) {
  std::vector<std::size_t> workers;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::size_t n =
        parse_number("--workers", csv.substr(start, end - start));
    if (n == 0) throw InvalidArgument("--workers entries must be >= 1");
    workers.push_back(n);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return workers;
}

int cmd_load_sweep(const Args& args) {
  eval::FleetSweepConfig fleet;
  fleet.base.scenario.room = acoustics::room_by_name(args.room);
  fleet.base.attack = attack_by_name(args.attack);
  fleet.base.legit_trials = args.trials;
  fleet.base.attack_trials = args.trials;
  fleet.base.queue_capacity = args.capacity;
  fleet.base.deadline_us = args.deadline_ms * 1000;
  if (!args.workers.empty()) {
    fleet.workers = parse_workers(args.workers);
    fleet.batch_max = args.batch;
    fleet.batch_window_us = args.batch_window_ms * 1000;
  } else {
    // The single serving node: one worker, micro-batching off.
    fleet.workers = {1};
    fleet.batch_max = 1;
    fleet.batch_window_us = 0;
    fleet.batch_setup_us = 0;
  }
  const auto result = eval::run_fleet_sweep(fleet, args.seed);
  std::printf("%s", result.summary().c_str());
  return 0;
}

int cmd_stream_sweep(const Args& args) {
  eval::StreamSweepConfig cfg;
  cfg.scenario.room = acoustics::room_by_name(args.room);
  cfg.attack = attack_by_name(args.attack);
  cfg.eval_trials = args.trials;
  const auto result = eval::run_stream_sweep(cfg, args.seed);
  std::printf("%s attack, %s, %zu calib + %zu eval trials", args.attack.c_str(),
              cfg.scenario.room.name.c_str(), result.calib_trials,
              result.eval_trials);
  if (result.unscored > 0) {
    std::printf(" (%zu unscored)", result.unscored);
  }
  std::printf(":\n%s", result.summary().c_str());
  return 0;
}

int cmd_export_audio(const Args& args) {
  std::filesystem::create_directories(args.dir);
  Rng rng(args.seed);
  speech::UtteranceBuilder builder;
  const auto spk = speech::sample_speaker(speech::Sex::kFemale, rng);
  auto utt = builder.build(speech::command_by_text("unlock the front door"),
                           spk, rng);
  Signal voice = utt.audio.scaled_to_rms(0.1);
  acoustics::Barrier window(
      acoustics::room_by_name(args.room).barrier_material);
  write_wav(args.dir + "/command_user.wav", voice);
  write_wav(args.dir + "/command_thru_barrier.wav",
            window.transmit(voice).scaled_to_rms(0.1));
  std::printf("wrote 2 WAV files to %s/\n", args.dir.c_str());
  return 0;
}

void usage() {
  std::printf(
      "usage: vibguard_cli <command> [options]\n"
      "  demo            detect one legit command and one attack\n"
      "  selection       run offline phoneme selection\n"
      "  experiment      ROC/AUC/EER for all three evaluation arms\n"
      "  attack-study    VA trigger probabilities vs SPL\n"
      "  fault-sweep     EER vs fault severity (robustness curves)\n"
      "  load-sweep      serving rates and EER vs offered load\n"
      "  stream-sweep    streaming early-exit fraction vs EER\n"
      "  export-audio    write demo WAV files\n"
      "options: --attack random|replay|synthesis|hidden_voice\n"
      "         --fault all|dropout|clipping|stuck_at|clock_drift|burst|\n"
      "                 truncation|non_finite\n"
      "         --room A|B|C|D  --trials N  --segments N  --seed S\n"
      "         --capacity N  --deadline-ms N  (load-sweep)\n"
      "         --workers CSV  --batch N  --batch-window-ms N\n"
      "                 (load-sweep: sharded fleet across the worker grid)\n");
}

}  // namespace

int main(int argc, char** argv) {
  // parse() throws on malformed flags (bad numbers, unknown options), so it
  // runs inside the same guard as the subcommands: the user gets a usage
  // error and exit code 2, never an uncaught-exception crash.
  try {
    const Args args = parse(argc, argv);
    if (args.command == "demo") return cmd_demo(args);
    if (args.command == "selection") return cmd_selection(args);
    if (args.command == "experiment") return cmd_experiment(args);
    if (args.command == "attack-study") return cmd_attack_study(args);
    if (args.command == "fault-sweep") return cmd_fault_sweep(args);
    if (args.command == "load-sweep") return cmd_load_sweep(args);
    if (args.command == "stream-sweep") return cmd_stream_sweep(args);
    if (args.command == "export-audio") return cmd_export_audio(args);
    usage();
    return args.command.empty() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
