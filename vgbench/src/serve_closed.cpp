// serve_closed: a serving::Server on SteadyClock with start_pumps and
// nproc - 1 workers, driven by 4 x workers client threads. Each client is
// a session-holding caller that waits for its verdict before sending the
// next command (a voice assistant waits for the verdict before acting), so
// requests from different clients meet in the shard queues and
// micro-batches. Four clients per worker keep every worker busy, so
// verdicts_per_s is the server's capacity and latency is mostly queueing.
// The only workload with queueing, micro-batching and pump threads.
//
// The loop is closed on purpose. An open-loop Poisson run on the
// development VM put p99 anywhere between 25 and 130 ms from run to run:
// a host stall delays every request queued behind it, so the tail moved
// with how many stalls a run happened to meet (see README.md). A closed
// loop exposes only the requests in flight to a stall.
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "core/detector.hpp"
#include "serving/server.hpp"
#include "workloads.hpp"

namespace vgbench {

namespace core = vibguard::core;
namespace serving = vibguard::serving;

namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kPopulationPerClass = 48;
constexpr int kWindows = 3;

struct Done {
  Ns at = 0;
  serving::ServedResult result;
};

/// One result slot per caller; a closed-loop caller has at most one
/// request in flight. The slot index rides in the request id's high bits.
class Mailbox {
 public:
  explicit Mailbox(std::size_t slots) : box_(slots) {}

  static std::uint64_t request_id(std::size_t slot, std::uint64_t k) {
    return (static_cast<std::uint64_t>(slot) << 32) | (k & 0xffffffffULL);
  }

  /// Called by the pump threads.
  void post(const serving::ServedResult& r) {
    const Ns at = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    box_[r.request_id >> 32] = Done{at, r};
    cv_.notify_all();
  }

  /// Waits for the slot's result; false after 20 s without one.
  bool take(std::size_t slot, Done& out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(20),
                      [&] { return box_[slot].has_value(); })) {
      return false;
    }
    out = *box_[slot];
    box_[slot].reset();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::optional<Done>> box_;
};

struct ServeState {
  std::vector<Trial> trials;
  std::vector<core::ScoreOutcome> reference;  ///< serial scoring
  std::unique_ptr<Mailbox> mailbox;
  std::unique_ptr<serving::Server> server;
  std::vector<std::uint64_t> session_ids;
  std::vector<serving::SessionHandle> handles;
};

/// One served command as a client saw it.
struct Call {
  Ns start = 0;       ///< before submit
  Ns submitted = 0;   ///< after submit
  std::size_t trial = 0;
  bool queued = false;
  Done done;
};

serving::ServerRequest request_for(const Trial& t, std::uint64_t id) {
  serving::ServerRequest req;
  req.va = &t.rec.va;
  req.wearable = &t.rec.wearable;
  req.segmenter = &t.segmenter;
  req.rng = t.rng;
  req.request_id = id;
  return req;
}

/// Runs `clients` closed-loop callers for `seconds`; client c sends
/// commands c, c + clients, ... of the population on its own sessions.
std::vector<std::vector<Call>> run_clients(ServeState& st,
                                           std::size_t clients,
                                           double seconds, Report& report) {
  std::vector<std::vector<Call>> calls(clients);
  std::vector<char> lost(clients, 0);
  const Ns stop = now_ns() + static_cast<Ns>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Call>& mine = calls[c];
      mine.reserve(1 << 12);
      for (std::uint64_t k = 0; now_ns() < stop; ++k) {
        Call call;
        call.trial = (c + k * clients) % st.trials.size();
        const std::size_t s = (c + k * clients) % kSessions;
        call.start = now_ns();
        call.queued = st.server->submit(
                          st.session_ids[s], st.handles[s],
                          request_for(st.trials[call.trial],
                                      Mailbox::request_id(c, k))) ==
                      serving::SubmitStatus::kQueued;
        call.submitted = now_ns();
        if (call.queued && !st.mailbox->take(c, call.done)) {
          lost[c] = 1;
          break;
        }
        mine.push_back(call);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < clients; ++c) {
    report.check(lost[c] == 0, "a served request never came back");
  }
  return calls;
}

}  // namespace

void run_serve_closed(const Options& opt, Report& report, Tracer& tracer) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = cores > 1 ? cores - 1 : 1;
  const std::size_t clients = 4 * workers;
  const std::function<std::unique_ptr<ServeState>()> setup = [&] {
    auto st = std::make_unique<ServeState>();
    st->trials = render_population(opt.seed,
                                   mixed_population(kPopulationPerClass),
                                   tracer.enabled() ? &tracer : nullptr,
                                   report);
    serving::ServerConfig cfg;
    cfg.defense = defense_config();
    cfg.workers = workers;
    // The reference every served score must equal: serial scoring of the
    // same (trial, rng) — the fleet determinism contract.
    const core::DefenseSystem serial(cfg.defense);
    core::Workspace ws;
    for (const Trial& t : st->trials) {
      vibguard::Rng rng = t.rng;
      st->reference.push_back(serial.try_score(t.rec.va, t.rec.wearable,
                                               &t.segmenter, rng, ws));
    }
    st->server = std::make_unique<serving::Server>(
        cfg, vibguard::SteadyClock::instance());
    // Session ids are random 64-bit values, as a deployment's would be
    // (small integers hash onto worker 0's own ring points: every id below
    // ring_replicas lands on worker 0). The set is fixed, so placement
    // does not vary from run to run.
    vibguard::Rng ids(0x5e551d5ULL);
    for (std::size_t s = 0; s < kSessions; ++s) {
      st->session_ids.push_back(ids());
      st->handles.push_back(st->server->open_session(st->session_ids.back()));
    }
    st->mailbox = std::make_unique<Mailbox>(std::max(clients, workers));
    Mailbox* mailbox = st->mailbox.get();
    st->server->start_pumps(
        [mailbox](const serving::ServedResult& r) { mailbox->post(r); });
    // Warm-up: every command once on every worker, so each lane's
    // workspace and each pump thread's FFT plans (cached per thread and
    // signal length) are warm before anything is timed.
    std::vector<std::size_t> session_of_worker(workers, kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::size_t w = st->server->shard_of(st->session_ids[s]);
      if (session_of_worker[w] == kSessions) session_of_worker[w] = s;
    }
    bool drained = true;
    for (std::size_t i = 0; i < st->trials.size() && drained; ++i) {
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t s = session_of_worker[w];
        if (s == kSessions) continue;  // a worker that owns no session
        st->server->submit(st->session_ids[s], st->handles[s],
                           request_for(st->trials[i],
                                       Mailbox::request_id(w, i)));
      }
      for (std::size_t w = 0; w < workers; ++w) {
        Done d;
        if (session_of_worker[w] != kSessions) {
          drained = drained && mailbox->take(w, d);
        }
      }
    }
    report.check(drained, "server warm-up never drained");
    return st;
  };
  auto st = timed_setup(opt, report, setup);

  std::vector<double> attack, legit;
  for (std::size_t i = 0; i < st->trials.size(); ++i) {
    if (!st->reference[i].ok()) continue;
    (st->trials[i].rec.is_attack ? attack : legit)
        .push_back(st->reference[i].score);
  }
  report_detection(opt, detection(attack, legit), report);

  // Latencies (ms) of `calls`, with the determinism check and failures.
  bool identical = true;
  const auto collect = [&](const std::vector<std::vector<Call>>& calls,
                           std::vector<double>& lat) {
    for (const auto& mine : calls) {
      for (const Call& call : mine) {
        ++report.attempted;
        if (!call.queued) {
          ++report.failed;  // rejected at admission
          continue;
        }
        const serving::ServedResult& r = call.done.result;
        const core::ScoreOutcome& ref = st->reference[call.trial];
        identical = identical && r.outcome.status == ref.status &&
                    same_bits(r.outcome.score, ref.score) && !r.degraded;
        if (!r.outcome.ok() || r.expired_in_queue) ++report.failed;
        lat.push_back(ns_to_ms(static_cast<double>(call.done.at - call.start)));
      }
    }
  };

  if (!tracer.enabled()) {
    // verdict_ms_p99 is the median of the p99s of kWindows back-to-back
    // windows, each with thousands of verdicts: a host stall then moves
    // one window's tail, not the figure.
    const Ns start = now_ns();
    std::vector<double> lat, window_p99;
    for (int w = 0; w < kWindows; ++w) {
      std::vector<double> wl;
      collect(run_clients(*st, clients, opt.seconds / kWindows, report), wl);
      window_p99.push_back(quantile(wl, 0.99));
      lat.insert(lat.end(), wl.begin(), wl.end());
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    report_latency(lat, elapsed, report);
    report.set("verdict_ms_p99", quantile(window_p99, 0.5));
    report.set("ok_share", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
  } else {
    // Traced run: half the time untraced, half with each request's
    // serving layers rebuilt as spans from the clients' timestamps and
    // ServedResult::queue_us.
    std::vector<double> plain_lat, traced_lat;
    collect(run_clients(*st, clients, opt.seconds / 2, report), plain_lat);
    const auto calls = run_clients(*st, clients, opt.seconds / 2, report);
    collect(calls, traced_lat);

    std::vector<double> submit_us, queue_ms, service_ms;
    double batch_sum = 0.0;
    std::size_t served = 0, expired = 0, rejected = 0;
    std::vector<std::size_t> per_worker(workers, 0);
    for (const auto& mine : calls) {
      for (const Call& call : mine) {
        const std::uint64_t id = call.done.result.request_id;
        submit_us.push_back(
            static_cast<double>(call.submitted - call.start) * 1e-3);
        if (!call.queued) {
          ++rejected;
          continue;
        }
        const serving::ServedResult& r = call.done.result;
        const Ns at = call.done.at;
        const std::uint32_t root =
            tracer.add("serving.request", call.start, at, 0, id);
        tracer.add("serving.submit", call.start, call.submitted, root, id);
        const Ns queued_until =
            std::min(at, call.submitted + r.queue_us * 1000);
        tracer.add("serving.queue", call.submitted, queued_until, root, id);
        tracer.add("serving.service", queued_until, at, root, id);
        queue_ms.push_back(static_cast<double>(r.queue_us) * 1e-3);
        service_ms.push_back(ns_to_ms(static_cast<double>(at - queued_until)));
        batch_sum += static_cast<double>(r.batch_size);
        ++served;
        if (r.expired_in_queue) ++expired;
        if (r.worker < per_worker.size()) ++per_worker[r.worker];
      }
    }
    std::size_t busiest = 0;
    for (const std::size_t n : per_worker) busiest = std::max(busiest, n);
    report.set("serving.submit_us_p99", quantile(submit_us, 0.99));
    report.set("serving.queue_ms_p50", quantile(queue_ms, 0.50));
    report.set("serving.queue_ms_p99", quantile(queue_ms, 0.99));
    report.set("serving.service_ms", quantile(service_ms, 0.50));
    report.set("serving.batch_size",
               served > 0 ? batch_sum / static_cast<double>(served) : 0.0);
    report.set("serving.rejected", static_cast<double>(rejected));
    report.set("serving.expired", static_cast<double>(expired));
    report.set("serving.worker_skew",
               served > 0 ? static_cast<double>(busiest) *
                                static_cast<double>(workers) /
                                static_cast<double>(served)
                          : 0.0);
    report.set("harness.trace_overhead",
               quantile(traced_lat, 0.5) / quantile(plain_lat, 0.5));
    report_render_metrics(tracer.totals(), report);
  }
  st->server->stop_pumps();
  report.check(identical,
               "a served score differs from serial scoring of the same "
               "(trial, rng)");
}

}  // namespace vgbench
